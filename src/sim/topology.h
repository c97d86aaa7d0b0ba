/**
 * @file
 * Simulated cluster topology: servers holding GPUs, host-GPU PCIe
 * links, an NVLink fabric inside NVLink-equipped servers, and an
 * Ethernet NIC per server (Fig 1).
 *
 * Achieved-efficiency knobs derate every raw capacity; the testbed
 * simulation plugs in the paper's measured Table VI profiles so the
 * simulated "hardware" behaves like the real one, independent of the
 * analytical model's uniform 70% assumption.
 */

#ifndef PAICHAR_SIM_TOPOLOGY_H
#define PAICHAR_SIM_TOPOLOGY_H

#include <memory>
#include <vector>

#include "hw/hardware_config.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "workload/model_zoo.h"

namespace paichar::sim {

/** Construction parameters for a simulated cluster. */
struct TopologyConfig
{
    /** Raw hardware capacities. */
    hw::ClusterSpec cluster = hw::v100Testbed();
    /** Achieved efficiencies (Table VI style); derate each capacity. */
    workload::EfficiencyProfile efficiency;
    /** Fixed host-side cost charged per GPU kernel. */
    double kernel_launch_overhead = 8e-6;
    /**
     * NVLink links per GPU (the Fig 1b hybrid mesh; 6 on Volta).
     * Ring collectives use one link; the sparse embedding exchange
     * spreads across all of them.
     */
    int nvlink_links_per_gpu = 6;
    /**
     * If true, all GPUs of a server contend on one PCIe root complex;
     * if false each GPU gets a dedicated host link (contention then
     * being folded into the PCIe efficiency, as in the testbed
     * measurements of Sec IV).
     */
    bool shared_pcie = false;
    /** Servers to instantiate. */
    int num_servers = 1;
};

/** One simulated GPU. */
class Gpu
{
  public:
    /**
     * @param eq        Event queue.
     * @param server_id Owning server.
     * @param local_id  Index within the server.
     * @param cfg       Topology configuration.
     * @param host_link Host-PCIe link this GPU uses (owned by server).
     */
    Gpu(EventQueue &eq, int server_id, int local_id,
        const TopologyConfig &cfg, Resource *host_link);

    /** Kernel-execution resource (amounts are seconds). */
    Resource &exec() { return *exec_; }

    /** Number of NVLink links (0 if the server lacks NVLink). */
    int numNvlinkLinks() const
    {
        return static_cast<int>(nvlink_links_.size());
    }

    /** NVLink egress link @p i of this GPU. */
    Resource &nvlinkLink(int i);

    /**
     * Primary NVLink egress (link 0; ring collectives use only this
     * one). Null if the server lacks NVLink.
     */
    Resource *nvlinkOut();

    /** Host-PCIe link carrying this GPU's input data and D2H/H2D. */
    Resource &hostLink() { return *host_link_; }

    int serverId() const { return server_id_; }
    int localId() const { return local_id_; }

  private:
    int server_id_;
    int local_id_;
    std::unique_ptr<Resource> exec_;
    std::vector<std::unique_ptr<Resource>> nvlink_links_;
    Resource *host_link_;
};

/** One simulated server (Fig 1a/1b). */
class Server
{
  public:
    Server(EventQueue &eq, int id, const TopologyConfig &cfg);

    /** The server's GPUs. */
    std::vector<std::unique_ptr<Gpu>> &gpus() { return gpus_; }

    /** Ethernet NIC. */
    Resource &nic() { return *nic_; }

    int id() const { return id_; }

  private:
    int id_;
    std::vector<std::unique_ptr<Resource>> host_links_;
    std::unique_ptr<Resource> nic_;
    std::vector<std::unique_ptr<Gpu>> gpus_;
};

/** A simulated cluster: one event queue + servers. */
class ClusterSim
{
  public:
    explicit ClusterSim(const TopologyConfig &cfg);

    /** The event queue every server's resources schedule on. */
    EventQueue &eventQueue() { return eq_; }

    /** Run the simulation to completion; returns the final time. */
    SimTime drain() { return eq_.run(); }

    const TopologyConfig &config() const { return cfg_; }

    std::vector<std::unique_ptr<Server>> &servers() { return servers_; }

    /** GPU by flat index (server-major order). */
    Gpu &gpu(int flat_index);

    /** Total GPUs in the cluster. */
    int numGpus() const;

    /**
     * The first @p n GPUs in server-major order -- the device group a
     * training job is placed on.
     */
    std::vector<Gpu *> gpuGroup(int n);

    /**
     * GPU 0 of each of the first @p n servers -- the PS/Worker
     * placement, one worker per server (Sec II-A2).
     */
    std::vector<Gpu *> gpuGroupOnePerServer(int n);

  private:
    TopologyConfig cfg_;
    EventQueue eq_;
    std::vector<std::unique_ptr<Server>> servers_;
};

} // namespace paichar::sim

#endif // PAICHAR_SIM_TOPOLOGY_H
