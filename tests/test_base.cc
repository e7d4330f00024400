/**
 * @file
 * Unit tests for base: rng, stats, units, logging, flat tables.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "base/flat_map.hh"
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

TEST(Stats, HistogramMergeAddsBuckets)
{
    Histogram a(0.0, 100.0, 10), b(0.0, 100.0, 10);
    for (int i = 0; i < 50; ++i)
        a.sample(i + 0.5);
    for (int i = 50; i < 100; ++i)
        b.sample(i + 0.5);
    b.sample(-1.0);
    b.sample(200.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 102u);
    for (std::size_t i = 0; i < a.buckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), 10u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
}

TEST(Stats, HistogramMergeShapeMismatchDies)
{
    Histogram a(0.0, 100.0, 10), b(0.0, 50.0, 10);
    EXPECT_DEATH(a.merge(b), "mismatched shape");
}

TEST(Stats, HistogramBucketsAndQuantiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.count(), 100u);
    for (std::size_t b = 0; b < h.buckets(); ++b)
        EXPECT_EQ(h.bucketCount(b), 10u);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Stats, HistogramOverUnderflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1);
    h.sample(11);
    h.sample(5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 3u);
}

// Regression: on sparse histograms the old interpolation could
// return a value below the lower edge of the bucket that actually
// contains the quantile sample — underflow (or earlier buckets)
// pushed the running total past the fractional target, e.g. p50 of
// {5x underflow, 5x bucket-9} came back as lo_. Every quantile must
// land inside its containing bucket.
TEST(Stats, HistogramSparseQuantileStaysInContainingBucket)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 5; ++i)
        h.sample(-1.0); // underflow
    for (int i = 0; i < 5; ++i)
        h.sample(95.0); // bucket 9: [90, 100)
    // Ranks 6..10 are the bucket-9 samples; p50 (rank 6) onward must
    // report within [90, 100], not lo_.
    EXPECT_GE(h.quantile(0.5), 90.0);
    EXPECT_LE(h.quantile(0.5), 100.0);
    EXPECT_GE(h.quantile(0.9), 90.0);
    EXPECT_LE(h.quantile(0.9), 100.0);
    EXPECT_GE(h.quantile(0.99), 90.0);
    EXPECT_LE(h.quantile(0.99), 100.0);
    // p25 (rank 3) is an underflow sample: pinned to the low edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
}

TEST(Stats, HistogramSparseQuantileEmptyBucketGap)
{
    // Two samples with eight empty buckets between them. The median
    // sample (nearest rank 2 of 2) lives in bucket 9; the old code
    // reported bucket 0's upper edge instead.
    Histogram h(0.0, 100.0, 10);
    h.sample(5.0);
    h.sample(95.0);
    EXPECT_GE(h.quantile(0.5), 90.0);
    EXPECT_LE(h.quantile(0.5), 100.0);
    EXPECT_GE(h.quantile(0.99), 90.0);
    // p10 (rank 1) is the bucket-0 sample.
    EXPECT_GE(h.quantile(0.1), 0.0);
    EXPECT_LE(h.quantile(0.1), 10.0);
}

TEST(Stats, HistogramSingleSampleQuantiles)
{
    Histogram h(0.0, 100.0, 10);
    h.sample(95.0);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_GE(h.quantile(q), 90.0) << "q=" << q;
        EXPECT_LE(h.quantile(q), 100.0) << "q=" << q;
    }
}

TEST(Stats, HistogramQuantileMonotoneAndOverflowPinned)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(15.0);
    h.sample(95.0);
    h.sample(1000.0); // overflow
    double prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
        prev = cur;
    }
    // The overflow sample is the max rank: reported as hi_.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
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

using Table = FlatMap<std::uint64_t, std::uint64_t>;
using RefMap = std::unordered_map<std::uint64_t, std::uint64_t>;

/** Check @p t holds exactly @p ref. */
void
expectSameContents(Table &t, const RefMap &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    std::size_t seen = 0;
    t.forEach([&](std::uint64_t k, std::uint64_t v) {
        ++seen;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "stray key " << k;
        EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(seen, ref.size());
}

/** One random insert, find or erase of a key from @p keys, mirrored. */
void
fuzzStep(Rng &rng, const std::vector<std::uint64_t> &keys, Table &t,
         RefMap &ref)
{
    const std::uint64_t k = keys[rng.below(keys.size())];
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        const auto [slot, inserted] = t.insert(k);
        ASSERT_EQ(inserted, !ref.contains(k)) << k;
        if (inserted)
            *slot = v;
        auto [it, ref_inserted] = ref.emplace(k, v);
        EXPECT_EQ(*slot, it->second);
        break;
      }
      case 1: {
        const std::uint64_t *v = t.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << k;
        if (v) {
            EXPECT_EQ(*v, it->second);
        }
        break;
      }
      case 2:
        EXPECT_EQ(t.erase(k), ref.erase(k) == 1) << k;
        break;
    }
}

TEST(FlatMap, FuzzOneProbeRunAcrossTheWrapAround)
{
    // Twelve keys (the most a 16-slot table holds before it grows):
    // six homed in the last slot and six in the first, so every
    // probe run wraps and erases shift entries back across the end.
    Table t;
    t.insert(0);
    t.erase(0);
    ASSERT_EQ(t.capacity(), Table::initialCapacity);
    const std::size_t last = t.capacity() - 1;
    std::vector<std::uint64_t> keys;
    std::size_t at_end = 0;
    std::size_t at_start = 0;
    for (std::uint64_t k = 1; keys.size() < 12; ++k) {
        const std::size_t home = t.homeSlot(k);
        if (home == last && at_end < 6) {
            ++at_end;
            keys.push_back(k);
        } else if (home == 0 && at_start < 6) {
            ++at_start;
            keys.push_back(k);
        }
    }
    RefMap ref;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        fuzzStep(rng, keys, t, ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(t.capacity(), Table::initialCapacity);
    expectSameContents(t, ref);
}

TEST(FlatMap, FuzzGrowingTableOfLineAddresses)
{
    // Line-aligned keys, as the agents use, over a pool large enough
    // that the table grows several times and shrinks back by erases.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 2048; ++i)
        keys.push_back(i * 128);
    Table t;
    RefMap ref;
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
        fuzzStep(rng, keys, t, ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(t.capacity(), 1024u);
    expectSameContents(t, ref);
}

TEST(FlatMap, SetAndIndexing)
{
    FlatSet<std::uint32_t> s;
    EXPECT_FALSE(s.contains(3));
    EXPECT_TRUE(s.insert(3).second);
    EXPECT_FALSE(s.insert(3).second);
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.erase(3));
    EXPECT_FALSE(s.erase(3));
    EXPECT_TRUE(s.empty());

    FlatMap<std::uint32_t, int> m;
    m[5] = 1;
    m[5] += 2;
    EXPECT_EQ(*m.find(5), 3);
    EXPECT_EQ(m.size(), 1u);
}

} // namespace
} // namespace enzian
