/**
 * @file
 * Tests for multi-board clustering: the rack's timing domains,
 * disaggregated memory (RDMA reads and writes plus operator
 * pushdown), and the cross-machine coherence bridge. Every service
 * runs on its node's FPGA domain.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/disagg_memory.hh"
#include "cluster/eci_bridge.hh"
#include "cluster/enzian_cluster.hh"
#include "net/rdma_engine.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::cluster {
namespace {

TEST(Cluster, ComposesNodesOnOneScheduler)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 3;
    EnzianCluster c(cfg);
    EXPECT_EQ(c.nodeCount(), 3u);
    EXPECT_EQ(c.network().portCount(), 12u);
    EXPECT_EQ(c.portOf(2, 1), 9u);
    // One scheduler runs the switch's net domain, then each node's
    // CPU and FPGA domains.
    sim::DomainScheduler &sched = *c.scheduler();
    ASSERT_EQ(sched.domainCount(), 1u + 2u * 3u);
    EXPECT_EQ(sched.domain(0).name(), c.topology().name + ".net");
    EXPECT_EQ(&c.network().eventq(), &sched.domain(0).queue());
    for (std::uint32_t i = 0; i < 3; ++i) {
        auto &m = c.node(i);
        EXPECT_EQ(m.scheduler(), &sched);
        EXPECT_EQ(m.cpuDomain(), &sched.domain(1 + 2 * i));
        EXPECT_EQ(m.fpgaDomain(), &sched.domain(2 + 2 * i));
        EXPECT_EQ(&m.eventq(), &m.cpuDomain()->queue());
        EXPECT_EQ(&m.fpgaEventq(), &m.fpgaDomain()->queue());
    }
}

TEST(Cluster, NodesOperateIndependently)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster c(cfg);
    std::vector<std::uint8_t> d0(cache::lineSize, 0x11);
    std::vector<std::uint8_t> d1(cache::lineSize, 0x22);
    int done = 0;
    c.node(0).fpgaRemote().writeLineUncached(0x1000, d0.data(),
                                             [&](Tick) { ++done; });
    c.node(1).fpgaRemote().writeLineUncached(0x1000, d1.data(),
                                             [&](Tick) { ++done; });
    c.run();
    EXPECT_EQ(done, 2);
    std::uint8_t b0, b1;
    c.node(0).cpuMem().store().read(0x1000, &b0, 1);
    c.node(1).cpuMem().store().read(0x1000, &b1, 1);
    EXPECT_EQ(b0, 0x11);
    EXPECT_EQ(b1, 0x22);
}

class DisaggTest : public ::testing::Test
{
  protected:
    DisaggTest()
    {
        EnzianCluster::Config cfg;
        cfg.nodes = 2;
        cluster = std::make_unique<EnzianCluster>(cfg);
        DisaggMemoryServer::Config scfg;
        scfg.port = cluster->portOf(0);
        scfg.region_size = 64ull << 20;
        server = std::make_unique<DisaggMemoryServer>(
            "server", cluster->node(0).fpgaEventq(), cluster->network(),
            cluster->node(0).fpgaMem(), scfg);
        client = std::make_unique<DisaggMemoryClient>(
            "client", cluster->node(1).fpgaEventq(), cluster->network(),
            cluster->portOf(1), *server);
        // Plain reads and writes are RDMA into the same FPGA DRAM.
        rdma = &client->rdma();
    }

    std::unique_ptr<EnzianCluster> cluster;
    std::unique_ptr<DisaggMemoryServer> server;
    std::unique_ptr<DisaggMemoryClient> client;
    net::RdmaInitiator *rdma = nullptr;
};

TEST_F(DisaggTest, RemoteReadWriteRoundTrip)
{
    std::vector<std::uint8_t> data(8192);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    bool wrote = false;
    rdma->write(0x4000, data.data(), data.size(),
                [&](Tick) { wrote = true; });
    cluster->run();
    ASSERT_TRUE(wrote);

    std::vector<std::uint8_t> back(data.size());
    bool read_done = false;
    rdma->read(0x4000, back.data(), back.size(),
               [&](Tick) { read_done = true; });
    cluster->run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(back, data);
}

TEST_F(DisaggTest, PushdownFilterReturnsOnlyMatches)
{
    // Rows: {u64 key, u64 value}; keys 0..999, select key >= 900.
    constexpr std::uint32_t row = 16;
    std::vector<std::uint8_t> table(1000 * row);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        std::memcpy(&table[k * row], &k, 8);
        const std::uint64_t v = k * 3;
        std::memcpy(&table[k * row + 8], &v, 8);
    }
    cluster->node(0).fpgaMem().store().write(0, table.data(),
                                             table.size());

    Predicate pred;
    pred.column_offset = 0;
    pred.op = FilterOp::Ge;
    pred.operand = 900;
    std::vector<std::uint8_t> matches;
    std::uint64_t wire_bytes = 0;
    client->scanFilter(0, row, 1000, pred,
                       [&](Tick, std::vector<std::uint8_t> m,
                           std::uint64_t wire) {
                           matches = std::move(m);
                           wire_bytes = wire;
                       });
    cluster->run();

    ASSERT_EQ(matches.size(), 100u * row);
    std::uint64_t first_key = 0;
    std::memcpy(&first_key, matches.data(), 8);
    EXPECT_EQ(first_key, 900u);
    // Selection moved ~10x less data than reading the table.
    EXPECT_LT(wire_bytes, table.size() / 5);
    EXPECT_EQ(server->rowsScanned(), 1000u);
}

TEST_F(DisaggTest, AllFilterOpsEvaluate)
{
    const std::uint64_t v = 42;
    std::uint8_t row[8];
    std::memcpy(row, &v, 8);
    auto check = [&](FilterOp op, std::uint64_t operand) {
        Predicate p;
        p.column_offset = 0;
        p.op = op;
        p.operand = operand;
        return p.matches(row);
    };
    EXPECT_TRUE(check(FilterOp::Eq, 42));
    EXPECT_FALSE(check(FilterOp::Eq, 41));
    EXPECT_TRUE(check(FilterOp::Ne, 41));
    EXPECT_TRUE(check(FilterOp::Lt, 43));
    EXPECT_TRUE(check(FilterOp::Le, 42));
    EXPECT_FALSE(check(FilterOp::Gt, 42));
    EXPECT_TRUE(check(FilterOp::Ge, 42));
}

class BridgeTest : public ::testing::Test
{
  protected:
    BridgeTest()
    {
        EnzianCluster::Config cfg;
        cfg.nodes = 2;
        cluster = std::make_unique<EnzianCluster>(cfg);
        auto &a = cluster->node(0);
        auto &b = cluster->node(1);

        // B exports the first 16 MiB of its CPU memory.
        EciBridgeTarget::Config tcfg;
        tcfg.port = cluster->portOf(1);
        tcfg.export_base = 0;
        target = std::make_unique<EciBridgeTarget>(
            "bridge.target", b.fpgaEventq(), cluster->network(),
            b.fpgaRemote(), tcfg);

        // A maps it at a window of its FPGA-homed space.
        fallback = std::make_unique<eci::DramLineSource>(a.fpgaMem(),
                                                         a.map());
        EciBridgeSource::Config scfg;
        scfg.port = cluster->portOf(0);
        scfg.window_base = windowBase();
        scfg.window_size = 16ull << 20;
        source = std::make_unique<EciBridgeSource>(
            "bridge.source", a.fpgaEventq(), cluster->network(),
            *fallback, *target, scfg);
        a.fpgaHome().setLineSource(source.get());
    }

    static Addr
    windowBase()
    {
        return mem::AddressMap::fpgaDramBase + (128ull << 20);
    }

    std::unique_ptr<EnzianCluster> cluster;
    std::unique_ptr<EciBridgeTarget> target;
    std::unique_ptr<eci::DramLineSource> fallback;
    std::unique_ptr<EciBridgeSource> source;
};

TEST_F(BridgeTest, CpuACachesMemoryOfMachineB)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    // Data lives in B's DRAM.
    std::vector<std::uint8_t> data(cache::lineSize, 0x5e);
    b.cpuMem().store().write(0x2000, data.data(), data.size());

    std::uint8_t out[cache::lineSize] = {};
    bool done = false;
    Tick latency = 0;
    const Tick start = a.now();
    a.cpuRemote().readLine(windowBase() + 0x2000, out, [&](Tick t) {
        done = true;
        latency = t - start;
    });
    cluster->run();
    ASSERT_TRUE(done);
    EXPECT_EQ(std::memcmp(out, data.data(), cache::lineSize), 0);
    // The line is genuinely cached on A.
    EXPECT_NE(a.l2().probe(windowBase() + 0x2000),
              cache::MoesiState::Invalid);
    EXPECT_EQ(source->linesBridged(), 1u);
    // Cross-machine refill costs network latency (microseconds).
    EXPECT_GT(units::toMicros(latency), 1.0);

    // Second access hits A's L2: no new bridge traffic.
    bool done2 = false;
    a.cpuRemote().readLine(windowBase() + 0x2000, out,
                           [&](Tick) { done2 = true; });
    cluster->run();
    ASSERT_TRUE(done2);
    EXPECT_EQ(source->linesBridged(), 1u);
}

TEST_F(BridgeTest, BridgedReadSnoopsDirtyLineInRemoteL2)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    // The line is dirty in B's L2, not in its DRAM.
    std::vector<std::uint8_t> dirty(cache::lineSize, 0xd1);
    b.l2().fill(0x3000, cache::MoesiState::Modified, dirty.data());

    std::uint8_t out[cache::lineSize] = {};
    bool done = false;
    a.cpuRemote().readLine(windowBase() + 0x3000, out,
                           [&](Tick) { done = true; });
    cluster->run();
    ASSERT_TRUE(done);
    // Coherence composes across the bridge: A sees B's dirty data.
    EXPECT_EQ(std::memcmp(out, dirty.data(), cache::lineSize), 0);
}

TEST_F(BridgeTest, WritebackLandsOnMachineB)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    std::vector<std::uint8_t> data(cache::lineSize, 0x77);
    bool wrote = false;
    a.cpuRemote().writeLine(windowBase() + 0x4000, data.data(),
                            [&](Tick) { wrote = true; });
    cluster->run();
    ASSERT_TRUE(wrote);
    bool flushed = false;
    a.cpuRemote().flushAll([&](Tick) { flushed = true; });
    cluster->run();
    ASSERT_TRUE(flushed);
    std::uint8_t back[cache::lineSize];
    b.cpuMem().store().read(0x4000, back, cache::lineSize);
    EXPECT_EQ(std::memcmp(back, data.data(), cache::lineSize), 0);
}

TEST_F(BridgeTest, OutsideWindowFallsThroughToLocalDram)
{
    auto &a = cluster->node(0);
    std::vector<std::uint8_t> data(cache::lineSize, 0x99);
    bool done = false;
    a.cpuRemote().writeLineUncached(mem::AddressMap::fpgaDramBase,
                                    data.data(),
                                    [&](Tick) { done = true; });
    cluster->run();
    ASSERT_TRUE(done);
    std::uint8_t back[cache::lineSize];
    a.fpgaMem().store().read(0, back, cache::lineSize);
    EXPECT_EQ(std::memcmp(back, data.data(), cache::lineSize), 0);
    EXPECT_EQ(source->linesBridged(), 0u);
}

TEST_F(BridgeTest, ReadAfterWriteAcrossBridgeIsSafe)
{
    // Non-posted bridged writes: a read issued after the write's ack
    // must observe the new data even though the memory is a network
    // away.
    auto &a = cluster->node(0);
    std::vector<std::uint8_t> data(cache::lineSize, 0xcd);
    std::uint8_t out[cache::lineSize] = {};
    bool read_done = false;
    a.cpuRemote().writeLineUncached(
        windowBase() + 0x5000, data.data(), [&](Tick) {
            a.cpuRemote().readLineUncached(
                windowBase() + 0x5000, out,
                [&](Tick) { read_done = true; });
        });
    cluster->run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(std::memcmp(out, data.data(), cache::lineSize), 0);
}

} // namespace
} // namespace enzian::cluster
