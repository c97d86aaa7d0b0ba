#include "topology.h"

#include <cassert>
#include <string>

namespace paichar::sim {

Gpu::Gpu(EventQueue &eq, int server_id, int local_id,
         const TopologyConfig &cfg, Resource *host_link)
    : server_id_(server_id), local_id_(local_id), host_link_(host_link)
{
    std::string tag = "s" + std::to_string(server_id) + "/g" +
                      std::to_string(local_id);
    exec_ = std::make_unique<Resource>(eq, "gpu/" + tag, 1.0,
                                       cfg.kernel_launch_overhead);
    if (cfg.cluster.server.has_nvlink) {
        assert(cfg.nvlink_links_per_gpu >= 1);
        double rate = cfg.cluster.server.nvlink_bandwidth *
                      cfg.efficiency.network;
        for (int l = 0; l < cfg.nvlink_links_per_gpu; ++l) {
            nvlink_links_.push_back(std::make_unique<Resource>(
                eq, "nvlink/" + tag + "/l" + std::to_string(l),
                rate));
        }
    }
}

Resource &
Gpu::nvlinkLink(int i)
{
    assert(i >= 0 && i < numNvlinkLinks());
    return *nvlink_links_[static_cast<size_t>(i)];
}

Resource *
Gpu::nvlinkOut()
{
    return nvlink_links_.empty() ? nullptr : nvlink_links_[0].get();
}

Server::Server(EventQueue &eq, int id, const TopologyConfig &cfg)
    : id_(id)
{
    const auto &srv = cfg.cluster.server;
    double pcie_rate = srv.pcie_bandwidth * cfg.efficiency.pcie;
    nic_ = std::make_unique<Resource>(
        eq, "nic/s" + std::to_string(id),
        cfg.cluster.ethernet_bandwidth * cfg.efficiency.network);

    if (cfg.shared_pcie) {
        host_links_.push_back(std::make_unique<Resource>(
            eq, "pcie/s" + std::to_string(id), pcie_rate));
    }
    for (int g = 0; g < srv.gpus_per_server; ++g) {
        Resource *link;
        if (cfg.shared_pcie) {
            link = host_links_.front().get();
        } else {
            host_links_.push_back(std::make_unique<Resource>(
                eq,
                "pcie/s" + std::to_string(id) + "/g" +
                    std::to_string(g),
                pcie_rate));
            link = host_links_.back().get();
        }
        gpus_.push_back(
            std::make_unique<Gpu>(eq, id, g, cfg, link));
    }
}

ClusterSim::ClusterSim(const TopologyConfig &cfg) : cfg_(cfg)
{
    assert(cfg.num_servers >= 1);
    for (int s = 0; s < cfg.num_servers; ++s)
        servers_.push_back(std::make_unique<Server>(eq_, s, cfg_));
}

Gpu &
ClusterSim::gpu(int flat_index)
{
    int per = cfg_.cluster.server.gpus_per_server;
    assert(flat_index >= 0 && flat_index < numGpus());
    return *servers_[static_cast<size_t>(flat_index / per)]
                ->gpus()[static_cast<size_t>(flat_index % per)];
}

int
ClusterSim::numGpus() const
{
    return cfg_.num_servers * cfg_.cluster.server.gpus_per_server;
}

std::vector<Gpu *>
ClusterSim::gpuGroup(int n)
{
    assert(n >= 1 && n <= numGpus());
    std::vector<Gpu *> group;
    group.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        group.push_back(&gpu(i));
    return group;
}

std::vector<Gpu *>
ClusterSim::gpuGroupOnePerServer(int n)
{
    assert(n >= 1 && n <= static_cast<int>(servers_.size()));
    std::vector<Gpu *> group;
    group.reserve(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s)
        group.push_back(servers_[static_cast<size_t>(s)]->gpus()[0].get());
    return group;
}

} // namespace paichar::sim
