/**
 * @file
 * Statistics implementation.
 */

#include "base/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>


namespace enzian {

void
Accumulator::sample(double v)
{
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    // Welford's online variance.
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double n = na + nb;
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    mean_ += delta * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

std::size_t
Histogram::index(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<std::size_t>(v);
    const unsigned msb = std::bit_width(v) - 1;
    const unsigned shift = msb - kSubBits;
    return ((shift + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) & (kSubBuckets - 1));
}

std::uint64_t
Histogram::bucketLow(std::size_t i)
{
    if (i < kSubBuckets)
        return i;
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    return (std::uint64_t{kSubBuckets} | (i & (kSubBuckets - 1)))
           << shift;
}

std::uint64_t
Histogram::bucketWidth(std::size_t i)
{
    if (i < kSubBuckets)
        return 1;
    return std::uint64_t{1} << (static_cast<unsigned>(i >> kSubBits) - 1);
}

void
Histogram::record(std::uint64_t v)
{
    const std::size_t i = index(v);
    ++counts_[i];
    lo_ = std::min(lo_, i);
    hi_ = std::max(hi_, i + 1);
    ++count_;
    sum_ += static_cast<double>(v);
    max_ = std::max(max_, v);
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest rank: the ceil(q*N)-th smallest sample, at least the 1st.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = lo_; i < hi_; ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return std::min(bucketLow(i) + bucketWidth(i) / 2, max_);
    }
    return max_; // unreachable: seen reaches count_
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = other.lo_; i < other.hi_; ++i)
        counts_[i] += other.counts_[i];
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
}

void
Histogram::reset()
{
    if (count_ == 0)
        return;
    std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(lo_),
              counts_.begin() + static_cast<std::ptrdiff_t>(hi_), 0);
    lo_ = kBuckets;
    hi_ = 0;
    count_ = 0;
    sum_ = 0.0;
    max_ = 0;
}

void
StatGroup::addCounter(const std::string &name, Counter *c)
{
    counters_.emplace_back(name, c);
}

void
StatGroup::addGauge(const std::string &name, Gauge *g)
{
    gauges_.emplace_back(name, g);
}

void
StatGroup::addAccumulator(const std::string &name, Accumulator *a)
{
    accums_.emplace_back(name, a);
}

void
StatGroup::addHistogram(const std::string &name, Histogram *h)
{
    hists_.emplace_back(name, h);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[n, c] : counters_)
        os << name_ << '.' << n << ' ' << c->value() << '\n';
    for (const auto &[n, g] : gauges_)
        os << name_ << '.' << n << ' ' << g->value() << '\n';
    for (const auto &[n, a] : accums_) {
        os << name_ << '.' << n << ".count " << a->count() << '\n';
        os << name_ << '.' << n << ".mean " << a->mean() << '\n';
        os << name_ << '.' << n << ".min " << a->min() << '\n';
        os << name_ << '.' << n << ".max " << a->max() << '\n';
    }
    for (const auto &[n, h] : hists_) {
        os << name_ << '.' << n << ".count " << h->count() << '\n';
        os << name_ << '.' << n << ".p50 " << h->quantile(0.50) << '\n';
        os << name_ << '.' << n << ".p90 " << h->quantile(0.90) << '\n';
        os << name_ << '.' << n << ".p99 " << h->quantile(0.99) << '\n';
    }
}

void
StatGroup::resetAll()
{
    for (const auto &[n, c] : counters_)
        c->reset();
    for (const auto &[n, g] : gauges_)
        g->reset();
    for (const auto &[n, a] : accums_)
        a->reset();
    for (const auto &[n, h] : hists_)
        h->reset();
}

} // namespace enzian
