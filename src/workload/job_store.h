/**
 * @file
 * A structure-of-arrays view over a training-job population.
 *
 * Two storage modes behind one interface:
 *
 *   - Owned: wraps a materialized std::vector<TrainingJob> (the CSV
 *     and synthetic-generation paths).
 *   - Columnar view: borrows column base pointers straight out of a
 *     `paib` payload (typically an mmap'd file), assembling each
 *     TrainingJob on access. A 100M-job trace then costs no per-job
 *     heap state at all — the analyses stream the file's own pages.
 *
 * Column pointers follow the `paib` schema order (binary_trace.h);
 * kFeatureColumnOrder below is the single source of truth shared by
 * the serializer, the validator and this view. Columns are NOT
 * assumed aligned: `paib` packs columns back to back, so any column
 * after the uint8 arch array is misaligned whenever the job count is
 * not a multiple of 8 — every element load goes through memcpy.
 */

#ifndef PAICHAR_WORKLOAD_JOB_STORE_H
#define PAICHAR_WORKLOAD_JOB_STORE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "workload/training_job.h"

namespace paichar::workload {

/** WorkloadFeatures members in `paib` column (schema) order. */
inline constexpr double WorkloadFeatures::*kFeatureColumnOrder[] = {
    &WorkloadFeatures::batch_size,
    &WorkloadFeatures::flop_count,
    &WorkloadFeatures::mem_access_bytes,
    &WorkloadFeatures::input_bytes,
    &WorkloadFeatures::comm_bytes,
    &WorkloadFeatures::embedding_comm_bytes,
    &WorkloadFeatures::dense_weight_bytes,
    &WorkloadFeatures::embedding_weight_bytes,
};

inline constexpr size_t kNumFeatureColumns =
    std::size(kFeatureColumnOrder);

/**
 * Column base pointers of a borrowed columnar job table (schema
 * order; see file comment for alignment caveats).
 */
struct JobColumns
{
    const char *ids = nullptr;    ///< int64[n]
    const char *archs = nullptr;  ///< uint8[n]
    const char *cnodes = nullptr; ///< int32[n]
    const char *ps = nullptr;     ///< int32[n]
    const char *features[kNumFeatureColumns] = {}; ///< double[n] each
};

/** A job population, owned or borrowed (see file comment). */
class JobStore
{
  public:
    /** An empty store. */
    JobStore() = default;

    /** Owned mode: wrap a materialized population. */
    explicit JobStore(std::vector<TrainingJob> jobs)
        : owned_(std::move(jobs)), size_(owned_.size())
    {
    }

    /**
     * Columnar view mode: @p cols points into memory kept alive by
     * @p backing (e.g. a mapped file). The caller has already
     * validated the table (see trace::readTraceStore).
     */
    static JobStore fromColumns(size_t n, const JobColumns &cols,
                                std::shared_ptr<const void> backing)
    {
        JobStore s;
        s.size_ = n;
        s.cols_ = cols;
        s.backing_ = std::move(backing);
        s.columnar_ = true;
        return s;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** True when backed by borrowed columns rather than a vector. */
    bool columnar() const { return columnar_; }

    /** Job @p i, assembled from the columns in view mode. */
    TrainingJob job(size_t i) const
    {
        if (!columnar_)
            return owned_[i];
        TrainingJob j;
        j.id = readRaw<int64_t>(cols_.ids + i * sizeof(int64_t));
        j.arch = static_cast<ArchType>(
            readRaw<uint8_t>(cols_.archs + i));
        j.num_cnodes =
            readRaw<int32_t>(cols_.cnodes + i * sizeof(int32_t));
        j.num_ps = readRaw<int32_t>(cols_.ps + i * sizeof(int32_t));
        for (size_t k = 0; k < kNumFeatureColumns; ++k) {
            j.features.*kFeatureColumnOrder[k] = readRaw<double>(
                cols_.features[k] + i * sizeof(double));
        }
        return j;
    }

    /** job(i).arch, read from its column alone. */
    ArchType arch(size_t i) const
    {
        if (!columnar_)
            return owned_[i].arch;
        return static_cast<ArchType>(readRaw<uint8_t>(cols_.archs + i));
    }

    /** job(i).num_cnodes, read from its column alone. */
    int numCnodes(size_t i) const
    {
        if (!columnar_)
            return owned_[i].num_cnodes;
        return readRaw<int32_t>(cols_.cnodes + i * sizeof(int32_t));
    }

    /**
     * job(i).features.weightBytes(), read from the dense and embedding
     * weight columns alone.
     */
    double weightBytes(size_t i) const
    {
        if (!columnar_)
            return owned_[i].features.weightBytes();
        WorkloadFeatures f;
        f.dense_weight_bytes =
            feature<&WorkloadFeatures::dense_weight_bytes>(i);
        f.embedding_weight_bytes =
            feature<&WorkloadFeatures::embedding_weight_bytes>(i);
        return f.weightBytes();
    }

    /**
     * The population as a vector. Free in owned mode; in view mode
     * every job is materialized (use only where downstream code
     * genuinely needs the vector, e.g. request generation).
     */
    std::vector<TrainingJob> materialize() const
    {
        if (!columnar_)
            return owned_;
        std::vector<TrainingJob> jobs;
        jobs.reserve(size_);
        for (size_t i = 0; i < size_; ++i)
            jobs.push_back(job(i));
        return jobs;
    }

    /** Forward iterator yielding jobs by value. */
    class const_iterator
    {
      public:
        using value_type = TrainingJob;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::input_iterator_tag;

        const_iterator(const JobStore *store, size_t i)
            : store_(store), i_(i)
        {
        }
        TrainingJob operator*() const { return store_->job(i_); }
        const_iterator &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }
        bool operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const JobStore *store_;
        size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    template <typename T>
    static T
    readRaw(const char *p)
    {
        T v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    /** Feature @p M of job @p i, read from its column (view mode). */
    template <double WorkloadFeatures::*M>
    double
    feature(size_t i) const
    {
        constexpr size_t k = static_cast<size_t>(
            std::find(std::begin(kFeatureColumnOrder),
                      std::end(kFeatureColumnOrder), M) -
            std::begin(kFeatureColumnOrder));
        static_assert(k < kNumFeatureColumns);
        return readRaw<double>(cols_.features[k] + i * sizeof(double));
    }

    std::vector<TrainingJob> owned_;
    size_t size_ = 0;
    JobColumns cols_;
    /** Keeps the borrowed columns' memory alive in view mode. */
    std::shared_ptr<const void> backing_;
    bool columnar_ = false;
};

} // namespace paichar::workload

#endif // PAICHAR_WORKLOAD_JOB_STORE_H
