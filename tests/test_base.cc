/**
 * @file
 * Unit tests for base: rng, stats, units, logging.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/units.hh"

namespace enzian {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = r.gaussian(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(21);
    Rng child(a.fork());
    Rng childCopy(Rng(21).fork());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(child.next(), childCopy.next());
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorMoments)
{
    Accumulator a;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_NEAR(a.variance(), 1.25, 1e-12);
}

TEST(Stats, AccumulatorMergeMatchesSequentialSampling)
{
    // Parallel Welford combine: folding per-domain accumulators must
    // reproduce the single-stream moments exactly enough that the
    // exported stats do not depend on how samples were partitioned.
    Accumulator whole, partA, partB;
    for (int i = 0; i < 100; ++i) {
        const double v = 0.37 * i - 11.0;
        whole.sample(v);
        (i % 3 == 0 ? partA : partB).sample(v);
    }
    partA.merge(partB);
    EXPECT_EQ(partA.count(), whole.count());
    EXPECT_DOUBLE_EQ(partA.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(partA.min(), whole.min());
    EXPECT_DOUBLE_EQ(partA.max(), whole.max());
    EXPECT_NEAR(partA.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(partA.variance(), whole.variance(), 1e-9);
}

TEST(Stats, AccumulatorMergeEmptySides)
{
    Accumulator a, b, empty;
    a.sample(3.0);
    a.sample(5.0);
    // Merging an empty accumulator is a no-op...
    Accumulator acopy = a;
    acopy.merge(empty);
    EXPECT_EQ(acopy.count(), 2u);
    EXPECT_DOUBLE_EQ(acopy.mean(), 4.0);
    // ...and merging into an empty one adopts the other side whole.
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 4.0);
    EXPECT_DOUBLE_EQ(b.min(), 3.0);
    EXPECT_DOUBLE_EQ(b.max(), 5.0);
}

TEST(Stats, HistogramIndexIsMonotoneAndBucketBoundsContainValues)
{
    // Exact below one octave's worth of sub-buckets...
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v)
        EXPECT_EQ(Histogram::index(v), static_cast<std::size_t>(v));
    // ...log-bucketed above, with every value inside its bucket.
    std::size_t prev = 0;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40);
         v = v * 3 + 1) {
        const std::size_t i = Histogram::index(v);
        EXPECT_GE(i, prev);
        prev = i;
        EXPECT_GE(v, Histogram::bucketLow(i));
        EXPECT_LT(v, Histogram::bucketLow(i) + Histogram::bucketWidth(i));
    }
    EXPECT_LT(Histogram::index(~std::uint64_t{0}), Histogram::kBuckets);
}

TEST(Stats, HistogramBucketsAndQuantiles)
{
    Histogram h;
    // Empty: every reading is 0.
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.meanTicks(), 0.0);
    // 1..10000 us uniformly: quantile(q) should land within one
    // sub-bucket (~3.2% relative) of the exact answer.
    for (int i = 1; i <= 10000; ++i)
        h.record(units::us(static_cast<double>(i)));
    EXPECT_EQ(h.count(), 10000u);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = 10000.0 * q;
        const double got = units::toMicros(h.quantile(q));
        EXPECT_NEAR(got, exact, exact * 0.04) << "q=" << q;
    }
    // Max and sum are exact, not bucket-quantized.
    EXPECT_EQ(h.maxValue(), units::us(10000.0));
    EXPECT_EQ(h.quantile(1.0), units::us(10000.0));
    EXPECT_DOUBLE_EQ(h.sum(), 5000.5 * 10000.0 * units::us(1.0));
    EXPECT_NEAR(h.meanTicks(), units::us(5000.5), units::us(0.5));
}

void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.maxValue(), b.maxValue());
    EXPECT_DOUBLE_EQ(a.sum(), b.sum());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
}

TEST(Stats, HistogramMergeAddsBuckets)
{
    Histogram a, b, both;
    for (int i = 1; i <= 500; ++i) {
        const Tick v = units::us(static_cast<double>(i * i % 997));
        ((i % 2) ? a : b).record(v);
        both.record(v);
    }
    a.merge(b);
    expectSameHistogram(a, both);
    // Merging an empty histogram, or into one, changes nothing.
    Histogram empty, copy;
    a.merge(empty);
    expectSameHistogram(a, both);
    copy.merge(a);
    expectSameHistogram(copy, both);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.5), 0u);
}

// merge and reset walk only the recorded bucket range. A stage that is
// recorded, folded and reset over and over, each round at a different
// range, must leave no stale counts behind and lose none.
TEST(Stats, HistogramMergeAndResetTrackTouchedRange)
{
    Histogram stage, agg, ref;
    const std::uint64_t bases[] = {5, 1u << 30, 300, 1ull << 50, 40, 7};
    for (const std::uint64_t base : bases) {
        for (std::uint64_t k = 0; k < 3; ++k) {
            stage.record(base + k * (base / 2 + 1));
            ref.record(base + k * (base / 2 + 1));
        }
        agg.merge(stage);
        stage.reset();
        EXPECT_EQ(stage.count(), 0u);
        EXPECT_EQ(stage.quantile(1.0), 0u);
        expectSameHistogram(agg, ref);
    }
}

// Regression (from the old linear type): on sparse histograms a
// quantile could come back below the lower edge of the bucket that
// actually holds its sample. Every quantile must land inside its
// containing bucket.
TEST(Stats, HistogramSparseQuantileStaysInContainingBucket)
{
    Histogram h;
    const std::uint64_t hi = 95000;
    const std::size_t b = Histogram::index(hi);
    const std::uint64_t lo = Histogram::bucketLow(b);
    const std::uint64_t top = lo + Histogram::bucketWidth(b);
    for (int i = 0; i < 5; ++i)
        h.record(3);
    for (int i = 0; i < 5; ++i)
        h.record(hi);
    // Ranks 6..10 are the high samples.
    for (double q : {0.6, 0.9, 0.99}) {
        EXPECT_GE(h.quantile(q), lo) << "q=" << q;
        EXPECT_LT(h.quantile(q), top) << "q=" << q;
    }
    // p25 (rank 3) is a low sample, exact below 32.
    EXPECT_EQ(h.quantile(0.25), 3u);
}

TEST(Stats, HistogramSparseQuantileEmptyBucketGap)
{
    // Two samples with hundreds of empty buckets between them. The
    // top sample (nearest rank 2 of 2) must be reported from its own
    // bucket, not from the low sample's edge.
    Histogram h;
    h.record(5);
    h.record(95000);
    EXPECT_EQ(h.quantile(0.5), 5u);
    EXPECT_GE(h.quantile(0.99),
              Histogram::bucketLow(Histogram::index(95000)));
    EXPECT_LE(h.quantile(0.99), 95000u);
    EXPECT_EQ(h.quantile(0.1), 5u);
}

TEST(Stats, HistogramSingleSampleQuantiles)
{
    Histogram h;
    h.record(95000);
    const std::size_t i = Histogram::index(95000);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_GE(h.quantile(q), Histogram::bucketLow(i)) << "q=" << q;
        EXPECT_LE(h.quantile(q), 95000u) << "q=" << q;
    }
}

TEST(Stats, HistogramQuantileMonotoneAndMaxPinned)
{
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(15000);
    h.record(95000);
    h.record(1000000000000ull); // far above the rest: never clamped
    std::uint64_t prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const std::uint64_t cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
        prev = cur;
    }
    // The top rank is reported as the exact max.
    EXPECT_EQ(h.quantile(1.0), 1000000000000ull);
}

TEST(Stats, StatGroupDump)
{
    Counter c;
    c.inc(7);
    StatGroup g("grp");
    g.addCounter("events", &c);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.events 7\n");
}

TEST(Units, TimeConversions)
{
    EXPECT_EQ(units::ns(1), 1000u);
    EXPECT_EQ(units::us(1), 1000000u);
    EXPECT_EQ(units::sec(1), 1000000000000ull);
    EXPECT_DOUBLE_EQ(units::toMicros(units::us(3)), 3.0);
}

TEST(Units, TransferTicks)
{
    // 1 GiB/s moving 1 GiB takes 1 second.
    EXPECT_EQ(units::transferTicks(units::GiB, units::giBps(1.0)),
              units::psPerSec);
    // Tiny transfers still take at least one tick.
    EXPECT_GE(units::transferTicks(1, 1e15), 1u);
    EXPECT_EQ(units::transferTicks(0, 1e9), 0u);
}

TEST(Units, RateConversions)
{
    EXPECT_DOUBLE_EQ(units::gbps(8.0), 1e9);
    EXPECT_NEAR(units::toGbps(units::gbps(100.0)), 100.0, 1e-9);
    EXPECT_NEAR(units::toGiBps(units::giBps(12.0)), 12.0, 1e-9);
}

TEST(Logging, FormatBasics)
{
    EXPECT_EQ(format("x=%d s=%s", 3, "hi"), "x=3 s=hi");
    EXPECT_EQ(format("%llu", 18446744073709551615ull),
              "18446744073709551615");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 1), "boom 1");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "bad config");
}

TEST(LoggingDeathTest, AssertMacro)
{
    EXPECT_DEATH(ENZIAN_ASSERT(1 == 2, "math broke %d", 5),
                 "math broke 5");
}

} // namespace
} // namespace enzian
