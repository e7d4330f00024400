/**
 * @file
 * Tests for GBDT ensembles and the inference engine (Figure 9
 * workload).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>

#include "accel/gbdt.hh"
#include "accel/gbdt_engine.hh"
#include "platform/platform_factory.hh"

namespace enzian::accel {
namespace {

/** Scores of every tuple from the reference walk. */
std::vector<float>
referenceScores(const GbdtEnsemble &e, const std::vector<float> &tuples,
                std::uint32_t width)
{
    std::vector<float> out(tuples.size() / width);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = e.predict(&tuples[i * width]);
    return out;
}

std::vector<float>
batchScores(const GbdtEnsemble &e, const std::vector<float> &tuples,
            std::uint32_t width)
{
    std::vector<float> out(tuples.size() / width);
    e.predictBatch(tuples.data(), out.size(), width, out.data());
    return out;
}

/** Bitwise equality: distinguishes -0.0f from 0.0f and compares NaNs. */
::testing::AssertionResult
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "tuple " << i << ": " << a[i] << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

/** FNV-1a 64 over the bytes of @p scores. */
std::uint64_t
fnv1a(const std::vector<float> &scores)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto *p = reinterpret_cast<const unsigned char *>(scores.data());
    for (std::size_t i = 0; i < scores.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(DecisionTree, HandBuiltTreeScores)
{
    // x[0] < 0 ? 1.0 : (x[1] < 0.5 ? 2.0 : 3.0), as a complete
    // depth-3 tree whose left subtree has two 1.0 leaves.
    GbdtEnsemble t(1, 3, 2, {{0, 0.0f}, {0, -0.5f}, {1, 0.5f}},
                   {1.0f, 1.0f, 2.0f, 3.0f});
    const float a[2] = {-1.0f, 0.0f};
    const float b[2] = {1.0f, 0.0f};
    const float c[2] = {1.0f, 1.0f};
    EXPECT_FLOAT_EQ(t.predict(a), 1.0f);
    EXPECT_FLOAT_EQ(t.predict(b), 2.0f);
    EXPECT_FLOAT_EQ(t.predict(c), 3.0f);
    EXPECT_EQ(t.depth(), 3u);
}

TEST(GbdtEnsemble, PredictionIsSumOfTrees)
{
    // Two depth-1 trees: a single leaf each.
    GbdtEnsemble e(2, 1, 1, {}, {0.5f, 1.5f});
    const float x[1] = {0.0f};
    EXPECT_FLOAT_EQ(e.predict(x), 2.0f);
}

TEST(GbdtEnsemble, SyntheticGenerationShape)
{
    auto e = makeEnsemble(1, 32, 5, 8);
    EXPECT_EQ(e.treeCount(), 32u);
    EXPECT_EQ(e.totalNodes(), 32u * 31u); // complete depth-5 trees
}

TEST(GbdtEnsemble, DeterministicAcrossBuilds)
{
    auto e1 = makeEnsemble(7, 8, 4, 8);
    auto e2 = makeEnsemble(7, 8, 4, 8);
    auto tuples = makeTuples(3, 100, 8);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_FLOAT_EQ(e1.predict(&tuples[i * 8]),
                        e2.predict(&tuples[i * 8]));
    }
}

TEST(GbdtEnsemble, PredictionsVaryAcrossTuples)
{
    auto e = makeEnsemble(11, 16, 5, 8);
    auto tuples = makeTuples(5, 50, 8);
    std::set<float> distinct;
    for (std::size_t i = 0; i < 50; ++i)
        distinct.insert(e.predict(&tuples[i * 8]));
    EXPECT_GT(distinct.size(), 10u);
}

class GbdtEngineTest : public ::testing::Test
{
  protected:
    GbdtEngineTest() : ensemble(makeEnsemble(1, 32, 5, 8)) {}

    EventQueue eq;
    GbdtEnsemble ensemble;
};

TEST_F(GbdtEngineTest, ScoresMatchReference)
{
    auto cfg = platform::gbdtPlatformConfig("Enzian", 1);
    GbdtEngine engine("e", eq, ensemble, cfg);
    auto tuples = makeTuples(2, 1000, cfg.features);
    auto r = engine.infer(tuples.data(), 1000);
    ASSERT_EQ(r.scores.size(), 1000u);
    EXPECT_TRUE(
        sameBits(r.scores, referenceScores(ensemble, tuples, cfg.features)));
}

TEST_F(GbdtEngineTest, ServeScoresMatchReference)
{
    auto cfg = platform::gbdtPlatformConfig("Enzian", 1);
    GbdtEngine engine("e", eq, ensemble, cfg);
    auto tuples = makeTuples(4, 300, cfg.features);
    std::vector<float> scores;
    Tick finished = 0;
    engine.serve(tuples.data(), 300, &scores,
                 [&](Tick, Tick end) { finished = end; });
    eq.run();
    EXPECT_GT(finished, 0u);
    EXPECT_TRUE(
        sameBits(scores, referenceScores(ensemble, tuples, cfg.features)));
}

/** Figure 9 calibration: platform x engines -> Mtuples/s. */
struct Fig9Case
{
    const char *platform;
    std::uint32_t engines;
    double expect_mtps;
};

// Without this, gtest prints the raw bytes of the platform pointer, so
// the discovered test names would change with every address layout.
void
PrintTo(const Fig9Case &c, std::ostream *os)
{
    *os << c.platform << "_x" << c.engines;
}

class Fig9Calibration : public ::testing::TestWithParam<Fig9Case>
{
};

TEST_P(Fig9Calibration, ThroughputMatchesPaper)
{
    const auto p = GetParam();
    EventQueue eq;
    auto ensemble = makeEnsemble(1, 32, 5, 8);
    GbdtEngine engine(
        "e", eq, ensemble,
        platform::gbdtPlatformConfig(p.platform, p.engines));
    auto tuples = makeTuples(2, 4096, 8);
    auto r = engine.infer(tuples.data(), 4096);
    EXPECT_NEAR(r.tuplesPerSecond / 1e6, p.expect_mtps,
                p.expect_mtps * 0.05)
        << p.platform << " x" << p.engines;
}

INSTANTIATE_TEST_SUITE_P(
    PaperNumbers, Fig9Calibration,
    ::testing::Values(Fig9Case{"Harp-v2", 1, 33.0},
                      Fig9Case{"Amazon-F1", 1, 24.0},
                      Fig9Case{"VCU118", 1, 41.0},
                      Fig9Case{"Enzian", 1, 48.0},
                      Fig9Case{"Harp-v2", 2, 66.0},
                      Fig9Case{"Amazon-F1", 2, 48.0},
                      Fig9Case{"VCU118", 2, 81.0},
                      Fig9Case{"Enzian", 2, 96.0}));

TEST_F(GbdtEngineTest, TransferBoundWhenHostLinkSlow)
{
    auto cfg = platform::gbdtPlatformConfig("Enzian", 2);
    cfg.host_bw = 1e9; // strangle the link
    GbdtEngine engine("e", eq, ensemble, cfg);
    auto tuples = makeTuples(2, 100, cfg.features);
    auto r = engine.infer(tuples.data(), 100);
    EXPECT_TRUE(r.transferBound);
    EXPECT_LT(r.tuplesPerSecond, 96e6);
}

TEST_F(GbdtEngineTest, WorkloadStaysUnderPaperHostBandwidth)
{
    // Paper: the workload "uses no more than 4 GB/s" to host memory.
    auto cfg = platform::gbdtPlatformConfig("Enzian", 2);
    GbdtEngine engine("e", eq, ensemble, cfg);
    auto tuples = makeTuples(2, 100, cfg.features);
    auto r = engine.infer(tuples.data(), 100);
    const double bytes_per_tuple = engine.tupleBytes() + sizeof(float);
    EXPECT_LT(r.tuplesPerSecond * bytes_per_tuple, 4e9);
}

TEST(GbdtEnsemble, BatchMatchesReferenceBitForBit)
{
    for (std::uint32_t depth : {1u, 2u, 5u, 8u}) {
        for (std::uint32_t width : {1u, 8u, 13u}) {
            auto e = makeEnsemble(depth * 100 + width, 7, depth, width);
            for (std::uint64_t count : {1, 15, 16, 17, 512, 1000}) {
                auto tuples = makeTuples(count, count, width);
                EXPECT_TRUE(sameBits(batchScores(e, tuples, width),
                                     referenceScores(e, tuples, width)))
                    << "depth " << depth << " width " << width
                    << " count " << count;
            }
        }
    }
    // The engine streams cfg.features-wide tuples; the ensemble may
    // use only a prefix of each.
    auto e = makeEnsemble(21, 9, 4, 5);
    auto tuples = makeTuples(22, 40, 8);
    EXPECT_TRUE(sameBits(batchScores(e, tuples, 8),
                         referenceScores(e, tuples, 8)));
}

TEST(GbdtEnsemble, BatchTiesSignedZerosAndNaNGoRight)
{
    // Tree t splits on feature t and adds 2^(2t) going left or
    // 2^(2t+1) going right, so the score spells out every branch.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    GbdtEnsemble e(3, 2, 3, {{0, 0.5f}, {1, -0.0f}, {2, 0.0f}},
                   {1.0f, 2.0f, 4.0f, 8.0f, 16.0f, 32.0f});
    const std::vector<std::vector<float>> rows = {
        {0.5f, 0.0f, -0.0f},  // ties, both zero signs: all right
        {nan, nan, nan},      // NaN: all right
        {0.49f, -0.1f, -1.0f}, // all left
        {-0.0f, -0.0f, 0.0f}, // left, then ties
    };
    const float expect[] = {42.0f, 42.0f, 21.0f, 41.0f};
    // 17 tuples: a full 16-wide block plus a one-tuple tail.
    std::vector<float> tuples;
    for (std::size_t i = 0; i < 17; ++i)
        tuples.insert(tuples.end(), rows[i % rows.size()].begin(),
                      rows[i % rows.size()].end());
    auto batch = batchScores(e, tuples, 3);
    EXPECT_TRUE(sameBits(batch, referenceScores(e, tuples, 3)));
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i], expect[i % rows.size()]) << "tuple " << i;
}

TEST(GbdtEnsemble, PinnedScoreDigests)
{
    // Pinned scores of generated ensembles: a change to makeEnsemble's
    // or makeTuples' draw order, or to the scoring arithmetic, changes
    // these digests.
    struct Row
    {
        std::uint64_t eseed;
        std::uint32_t trees, depth, features;
        std::uint64_t tseed, count;
        std::uint64_t digest;
    };
    const Row rows[] = {
        {0xd7ee5, 32, 5, 8, 0x7ab1e, 2048, 0x65082eac28c6d089ull},
        {1, 32, 5, 8, 2, 1000, 0x53db761fee5d0282ull},
        {7, 8, 4, 8, 3, 100, 0x121938aacdb56f11ull},
        {3, 4, 8, 13, 9, 257, 0x5d12f2e5a5f2f876ull},
        {5, 3, 1, 2, 6, 17, 0x937658947bbd95fcull},
    };
    for (const Row &r : rows) {
        auto e = makeEnsemble(r.eseed, r.trees, r.depth, r.features);
        auto tuples = makeTuples(r.tseed, r.count, r.features);
        EXPECT_EQ(fnv1a(referenceScores(e, tuples, r.features)), r.digest)
            << "ensemble seed " << r.eseed;
        EXPECT_EQ(fnv1a(batchScores(e, tuples, r.features)), r.digest)
            << "ensemble seed " << r.eseed;
    }
}

TEST(GbdtEnsembleDeathTest, BadShapeFatal)
{
    EXPECT_EXIT(GbdtEnsemble(0, 1, 1, {}, {}),
                ::testing::ExitedWithCode(1), "bad GBDT ensemble shape");
    EXPECT_EXIT(GbdtEnsemble(1, 21, 1, {}, {}),
                ::testing::ExitedWithCode(1), "bad GBDT ensemble shape");
    EXPECT_EXIT(GbdtEnsemble(1, 2, 1, {{0, 0.0f}}, {1.0f}),
                ::testing::ExitedWithCode(1), "do not match");
    EXPECT_EXIT(GbdtEnsemble(1, 2, 1, {}, {1.0f, 2.0f}),
                ::testing::ExitedWithCode(1), "do not match");
    EXPECT_EXIT(GbdtEnsemble(1, 2, 2, {{2, 0.0f}}, {1.0f, 2.0f}),
                ::testing::ExitedWithCode(1), "feature 2 of a 2-feature");
    EXPECT_EXIT(makeEnsemble(1, 1, 2, 0), ::testing::ExitedWithCode(1),
                "bad ensemble shape");
}

TEST(GbdtEngineDeathTest, EnsembleWiderThanTuplesFatal)
{
    EventQueue eq;
    auto ensemble = makeEnsemble(1, 4, 5, 16);
    auto cfg = platform::gbdtPlatformConfig("Enzian", 1);
    ASSERT_EQ(cfg.features, 8u);
    EXPECT_EXIT(GbdtEngine("wide", eq, ensemble, cfg),
                ::testing::ExitedWithCode(1),
                "indexes 16 features, tuples carry 8");
}

TEST(GbdtEngineDeathTest, BadConfigFatal)
{
    EventQueue eq;
    auto ensemble = makeEnsemble(1, 2, 2, 2);
    GbdtEngine::Config cfg;
    cfg.engines = 0;
    EXPECT_EXIT(GbdtEngine("bad", eq, ensemble, cfg),
                ::testing::ExitedWithCode(1), "bad configuration");
}

} // namespace
} // namespace enzian::accel
