#include "arch_feasibility.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace paichar::core {

using workload::ArchType;
using workload::WorkloadFeatures;

Placement
resolvePlacement(const WorkloadFeatures &f, ArchType arch,
                 int requested_cnodes, const hw::ServerSpec &server,
                 double gpu_memory_bytes, int partition_ways)
{
    // Callers pass user input (advise --cnodes, plan --gpu-mem), so
    // these hold in release builds too.
    if (requested_cnodes < 1 || partition_ways < 1) {
        throw std::invalid_argument(
            "resolvePlacement: cNodes and partition ways must be >= 1, "
            "got " + std::to_string(requested_cnodes) + " and " +
            std::to_string(partition_ways));
    }
    if (!(gpu_memory_bytes > 0.0)) {
        throw std::invalid_argument(
            "resolvePlacement: GPU memory must be positive, got " +
            std::to_string(gpu_memory_bytes));
    }

    Placement p;
    p.arch = arch;
    p.num_cnodes = requested_cnodes;

    const int ways = partition_ways;
    if (ways > 1) {
        // Shard groups exchange activations across a server's NVLink
        // mesh every step; they cannot straddle servers, and 1w1g /
        // PS/Worker place one GPU per worker by definition.
        if (arch == ArchType::OneWorkerOneGpu ||
            arch == ArchType::PsWorker) {
            p.reason = "architecture cannot host model shards";
            return p;
        }
        if (!server.has_nvlink) {
            p.reason = "model partitioning requires NVLink servers";
            return p;
        }
        if (ways > server.gpus_per_server) {
            p.reason = "partition degree exceeds one server's GPUs";
            return p;
        }
    }

    int n = requested_cnodes;
    double per_gpu = 0.0;
    switch (arch) {
      case ArchType::OneWorkerOneGpu:
        n = 1;
        per_gpu = f.weightBytes();
        break;
      case ArchType::OneWorkerMultiGpu:
        n = std::min(n, server.gpus_per_server);
        // Parameters live in host memory; GPUs hold working copies of
        // the dense part only.
        per_gpu = f.dense_weight_bytes;
        break;
      case ArchType::PsWorker:
        // Parameters are partitioned across PS hosts; a worker GPU
        // holds the dense replica plus the rows of the current batch.
        per_gpu = f.dense_weight_bytes + f.comm_bytes;
        break;
      case ArchType::AllReduceLocal:
        n = std::min(n, server.gpus_per_server);
        per_gpu = f.weightBytes();
        break;
      case ArchType::AllReduceCluster:
        per_gpu = f.weightBytes();
        break;
      case ArchType::Pearl:
        n = std::min(n, server.gpus_per_server);
        per_gpu = f.dense_weight_bytes +
                  f.embedding_weight_bytes / std::max(1, n);
        break;
    }

    if (ways > 1) {
        // Each replica becomes a shard group of `ways` GPUs holding
        // 1/ways of the replicated parameters each (PEARL's embedding
        // shards are already per-GPU and stay untouched).
        n = std::max(ways, n / ways * ways);
        if (arch == ArchType::Pearl) {
            per_gpu = f.dense_weight_bytes / ways +
                      f.embedding_weight_bytes / std::max(1, n);
        } else {
            per_gpu /= ways;
        }
    }
    p.num_cnodes = n;
    p.per_gpu_weight_bytes = per_gpu;

    bool needs_nvlink = arch == ArchType::AllReduceLocal ||
                        arch == ArchType::AllReduceCluster ||
                        arch == ArchType::Pearl;
    if (needs_nvlink && !server.has_nvlink) {
        p.reason = "requires NVLink servers";
        return p;
    }
    if (per_gpu > gpu_memory_bytes) {
        p.reason = "weights exceed per-GPU memory budget";
        return p;
    }
    p.feasible = true;
    return p;
}

} // namespace paichar::core
