/**
 * @file
 * Tests for GBDT ensembles and the inference engine (Figure 9
 * workload).
 */

#include <gtest/gtest.h>

#include <set>

#include "accel/gbdt.hh"
#include "accel/gbdt_engine.hh"
#include "platform/platform_factory.hh"

namespace enzian::accel {
namespace {

TEST(DecisionTree, HandBuiltTreeScores)
{
    // x[0] < 0 ? 1.0 : (x[1] < 0.5 ? 2.0 : 3.0)
    std::vector<TreeNode> nodes(5);
    nodes[0] = {0, 0.0f, 0.0f, false, 1, 2};
    nodes[1].isLeaf = true;
    nodes[1].value = 1.0f;
    nodes[2] = {1, 0.5f, 0.0f, false, 3, 4};
    nodes[3].isLeaf = true;
    nodes[3].value = 2.0f;
    nodes[4].isLeaf = true;
    nodes[4].value = 3.0f;
    DecisionTree t(std::move(nodes));
    const float a[2] = {-1.0f, 0.0f};
    const float b[2] = {1.0f, 0.0f};
    const float c[2] = {1.0f, 1.0f};
    EXPECT_FLOAT_EQ(t.score(a), 1.0f);
    EXPECT_FLOAT_EQ(t.score(b), 2.0f);
    EXPECT_FLOAT_EQ(t.score(c), 3.0f);
    EXPECT_EQ(t.depth(), 3u);
}

TEST(GbdtEnsemble, PredictionIsSumOfTrees)
{
    auto leaf = [](float v) {
        std::vector<TreeNode> n(1);
        n[0].isLeaf = true;
        n[0].value = v;
        return DecisionTree(std::move(n));
    };
    std::vector<DecisionTree> trees;
    trees.push_back(leaf(0.5f));
    trees.push_back(leaf(1.5f));
    GbdtEnsemble e(std::move(trees));
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
    for (std::size_t i = 0; i < 1000; ++i) {
        EXPECT_FLOAT_EQ(r.scores[i],
                        ensemble.predict(&tuples[i * cfg.features]));
    }
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
