#include "collective_ops.h"

#include <cassert>
#include <memory>

namespace paichar::collectives {

double
RingCost::allReduce(int n, double bytes, double link_rate,
                    double phase_latency)
{
    assert(n >= 1);
    if (n == 1)
        return 0.0;
    int phases = 2 * (n - 1);
    return phases * (phase_latency + bytes / n / link_rate);
}

double
RingCost::allGather(int n, double bytes, double link_rate,
                    double phase_latency)
{
    assert(n >= 1);
    if (n == 1)
        return 0.0;
    int phases = n - 1;
    return phases * (phase_latency + bytes / n / link_rate);
}

double
RingCost::sparseExchange(int n, double bytes, double link_rate,
                         int links, double phase_latency)
{
    assert(n >= 1 && links >= 1);
    if (n == 1)
        return 0.0;
    return phase_latency + bytes / n / links / link_rate;
}

CollectiveOps::CollectiveOps(sim::EventQueue &eq, double phase_latency)
    : eq_(eq), phase_latency_(phase_latency)
{
    assert(phase_latency_ >= 0.0);
}

std::vector<sim::Resource *>
CollectiveOps::primaryLinks(const std::vector<sim::Gpu *> &group)
{
    std::vector<sim::Resource *> links;
    links.reserve(group.size());
    for (sim::Gpu *gpu : group) {
        assert(gpu->nvlinkOut() && "collective requires NVLink");
        links.push_back(gpu->nvlinkOut());
    }
    return links;
}

void
CollectiveOps::runPhases(std::vector<sim::Resource *> links,
                         double per_phase_bytes, int phases, Done done)
{
    assert(!links.empty());
    if (phases <= 0 || per_phase_bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    // Shared phase state; rounds are chained through completions.
    struct State
    {
        std::vector<sim::Resource *> links;
        double per_phase_bytes;
        int phases_left;
        size_t outstanding = 0;
        Done done;
    };
    auto st = std::make_shared<State>();
    st->links = std::move(links);
    st->per_phase_bytes = per_phase_bytes;
    st->phases_left = phases;
    st->done = std::move(done);

    // Launch one phase: every link carries its chunk concurrently; the
    // next phase starts when the slowest finishes (ring barrier). The
    // closure holds itself weakly -- a strong self-capture is a cycle
    // that leaks it, the state and the caller's callback -- while the
    // pending event and link callbacks that run it hold it strongly.
    auto launch = std::make_shared<std::function<void()>>();
    double latency = phase_latency_;
    sim::EventQueue &eq = eq_;
    *launch = [st, self = std::weak_ptr<std::function<void()>>(launch),
               latency, &eq] {
        auto launch = self.lock();
        st->outstanding = st->links.size();
        for (sim::Resource *link : st->links) {
            link->submit(
                st->per_phase_bytes,
                [st, launch, latency, &eq](sim::SimTime, sim::SimTime) {
                    if (--st->outstanding > 0)
                        return;
                    if (--st->phases_left > 0) {
                        eq.scheduleAfter(latency, [launch] {
                            (*launch)();
                        });
                    } else {
                        eq.scheduleAfter(latency, [st, &eq] {
                            st->done(eq.now());
                        });
                    }
                });
        }
    };
    eq_.scheduleAfter(latency, [launch] { (*launch)(); });
}

void
CollectiveOps::ringAllReduce(const std::vector<sim::Gpu *> &group,
                             double bytes, Done done)
{
    int n = static_cast<int>(group.size());
    assert(n >= 1);
    if (n == 1 || bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    runPhases(primaryLinks(group), bytes / n, 2 * (n - 1),
              std::move(done));
}

void
CollectiveOps::ringAllGather(const std::vector<sim::Gpu *> &group,
                             double total_bytes, Done done)
{
    int n = static_cast<int>(group.size());
    assert(n >= 1);
    if (n == 1 || total_bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    runPhases(primaryLinks(group), total_bytes / n, n - 1,
              std::move(done));
}

void
CollectiveOps::ringReduceScatter(const std::vector<sim::Gpu *> &group,
                                 double total_bytes, Done done)
{
    // Same schedule as all-gather, opposite data direction.
    ringAllGather(group, total_bytes, std::move(done));
}

void
CollectiveOps::broadcast(const std::vector<sim::Gpu *> &group,
                         double bytes, Done done)
{
    int n = static_cast<int>(group.size());
    assert(n >= 1);
    if (n == 1 || bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    // Pipelined chain broadcast: with chunking, time approaches one
    // full buffer per hop-link; model as a single phase of `bytes` on
    // every link but the last GPU's.
    auto links = primaryLinks(group);
    links.pop_back(); // the tail only receives
    runPhases(std::move(links), bytes, 1, std::move(done));
}

void
CollectiveOps::sparseAllToAll(const std::vector<sim::Gpu *> &group,
                              double total_bytes, Done done)
{
    int n = static_cast<int>(group.size());
    assert(n >= 1);
    if (n == 1 || total_bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    // Each GPU egresses its owned shard's share (total/n), spread
    // across all of its mesh links in parallel.
    std::vector<sim::Resource *> links;
    for (sim::Gpu *gpu : group) {
        assert(gpu->numNvlinkLinks() > 0 &&
               "sparse exchange requires NVLink");
        for (int l = 0; l < gpu->numNvlinkLinks(); ++l)
            links.push_back(&gpu->nvlinkLink(l));
    }
    double per_link =
        total_bytes / n / group[0]->numNvlinkLinks();
    runPhases(std::move(links), per_link, 1, std::move(done));
}

void
CollectiveOps::nicRingAllReduce(
    const std::vector<sim::Server *> &servers, double bytes, Done done)
{
    int s = static_cast<int>(servers.size());
    assert(s >= 1);
    if (s == 1 || bytes <= 0.0) {
        eq_.scheduleAfter(0.0, [done, &eq = eq_] { done(eq.now()); });
        return;
    }
    std::vector<sim::Resource *> nics;
    nics.reserve(servers.size());
    for (sim::Server *srv : servers)
        nics.push_back(&srv->nic());
    runPhases(std::move(nics), bytes / s, 2 * (s - 1),
              std::move(done));
}

} // namespace paichar::collectives
