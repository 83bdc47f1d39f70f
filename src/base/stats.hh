/**
 * @file
 * Lightweight statistics collection: scalar counters, gauges,
 * min/max/mean accumulators, and log-bucketed histograms. Components
 * expose their counters through a StatGroup so tests, benches, and the
 * global obs::Registry can read, dump, export, and reset them
 * uniformly.
 */

#ifndef ENZIAN_BASE_STATS_HH
#define ENZIAN_BASE_STATS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace enzian {

/** Monotonic event counter. */
class Counter
{
  public:
    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { value_ += n; }
    /** Current count. */
    std::uint64_t value() const { return value_; }
    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-value gauge for levels that move both ways (depth, rate, V). */
class Gauge
{
  public:
    /** Set the current level. */
    void set(double v) { value_ = v; }
    /** Adjust the current level by @p d (may be negative). */
    void add(double d) { value_ += d; }
    /** Current level. */
    double value() const { return value_; }
    /** Reset to zero. */
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** Accumulates samples and reports count/sum/min/max/mean/variance. */
class Accumulator
{
  public:
    /** Record one sample. */
    void sample(double v);

    /**
     * Fold another accumulator's samples into this one, as if every
     * sample of @p other had been recorded here. Variance combines via
     * the parallel Welford formula (Chan et al.), so merging staged
     * per-thread accumulators in a fixed order is deterministic.
     */
    void merge(const Accumulator &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population variance (Welford). */
    double variance() const { return count_ ? m2_ / count_ : 0.0; }
    double stddev() const;

    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Log-bucketed histogram of non-negative integer samples (latencies in
 * ns or ticks), HDR-style: 2^kSubBits sub-buckets per power of two, so
 * quantiles carry at most ~3.2% relative error over the full 64-bit
 * range and nothing is ever clamped. Record is O(1); merge, reset and
 * quantile touch only the recorded bucket range, which keeps folding
 * staged per-direction histograms at every epoch barrier cheap.
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBits = 5;
    static constexpr std::size_t kSubBuckets = std::size_t{1}
                                               << kSubBits;
    /** Enough for 64 octaves x 32 sub-buckets. */
    static constexpr std::size_t kBuckets = 2048;

    /** Bucket index of @p v (total order, monotone in v). */
    static std::size_t index(std::uint64_t v);
    /** Smallest value mapping to bucket @p i. */
    static std::uint64_t bucketLow(std::size_t i);
    /** Width of bucket @p i. */
    static std::uint64_t bucketWidth(std::size_t i);

    void record(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    /** Sum of recorded values, exact while below 2^53. */
    double sum() const { return sum_; }
    /** Exact largest recorded value (not bucket-quantized). */
    std::uint64_t maxValue() const { return max_; }
    /** Exact mean of recorded values. */
    double meanTicks() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Nearest-rank quantile @p q in [0, 1], reported as the midpoint
     * of the containing bucket (clamped to the exact max). Returns 0
     * when empty.
     */
    std::uint64_t quantile(double q) const;

    /** Fold @p other in, as if its samples were recorded here. */
    void merge(const Histogram &other);

    void reset();

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    /** Recorded bucket range [lo_, hi_); empty when count_ == 0. */
    std::size_t lo_ = kBuckets;
    std::size_t hi_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::uint64_t max_ = 0;
};

/**
 * Named collection of statistics for one component; supports a
 * human-readable dump, group-wide reset, and typed iteration (used by
 * the global obs::Registry for machine-readable exports). Registration
 * stores pointers, so registered stats must outlive the group.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, Counter *c);
    void addGauge(const std::string &name, Gauge *g);
    void addAccumulator(const std::string &name, Accumulator *a);
    void addHistogram(const std::string &name, Histogram *h);

    /**
     * Write "group.stat value" lines to @p os. Accumulators expand to
     * .count/.mean/.min/.max, histograms to .count/.p50/.p90/.p99.
     */
    void dump(std::ostream &os) const;

    /** Reset every registered statistic to its initial state. */
    void resetAll();

    const std::string &name() const { return name_; }

    // Typed access for exporters.
    const std::vector<std::pair<std::string, Counter *>> &
    counters() const
    {
        return counters_;
    }
    const std::vector<std::pair<std::string, Gauge *>> &gauges() const
    {
        return gauges_;
    }
    const std::vector<std::pair<std::string, Accumulator *>> &
    accumulators() const
    {
        return accums_;
    }
    const std::vector<std::pair<std::string, Histogram *>> &
    histograms() const
    {
        return hists_;
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, Counter *>> counters_;
    std::vector<std::pair<std::string, Gauge *>> gauges_;
    std::vector<std::pair<std::string, Accumulator *>> accums_;
    std::vector<std::pair<std::string, Histogram *>> hists_;
};

} // namespace enzian

#endif // ENZIAN_BASE_STATS_HH
