/**
 * @file
 * Tests for the Ethernet/switch substrate and the two TCP stack
 * models (FPGA single-pipeline stack vs Linux host stack).
 */

#include <gtest/gtest.h>

#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "platform/params.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::net {
namespace {

Switch::Config
switchConfig()
{
    Switch::Config cfg;
    cfg.port = platform::params::eth100Config();
    return cfg;
}

TEST(EthernetLink, EffectiveBandwidthBelowLineRate)
{
    EventQueue eq;
    EthernetLink link("e", eq, platform::params::eth100Config());
    EXPECT_NEAR(link.lineRate(), 12.5e9, 1e6);
    EXPECT_LT(link.effectiveBandwidth(), link.lineRate());
}

TEST(EthernetLink, DeliversPayloadAndTag)
{
    EventQueue eq;
    EthernetLink link("e", eq, platform::params::eth100Config());
    std::uint64_t got_bytes = 0, got_body = 0;
    link.setReceiver(1, [&](Tick, Frame &&f) {
        got_bytes = f.bytes;
        got_body = f.body.get<std::uint64_t>();
    });
    link.send(0, makeFrame(5000, 0, std::uint64_t{0x1234}));
    eq.run();
    EXPECT_EQ(got_bytes, 5000u);
    EXPECT_EQ(got_body, 0x1234u);
}

TEST(EthernetLink, FrameOverheadShowsInTiming)
{
    EventQueue eq;
    auto cfg = platform::params::eth100Config();
    EthernetLink link("e", eq, cfg);
    link.setReceiver(1, [](Tick, Frame &&) {});
    const Tick one = link.send(0, Frame{cfg.mtu, 0, {}});
    // Same payload as many minimum fragments costs more wire time.
    EventQueue eq2;
    EthernetLink link2("e2", eq2, cfg);
    link2.setReceiver(1, [](Tick, Frame &&) {});
    Tick many = 0;
    for (std::uint32_t i = 0; i < cfg.mtu / 64; ++i)
        many = link2.send(0, Frame{64, 0, {}});
    EXPECT_GT(many, one);
}

TEST(Switch, RoutesByTag)
{
    EventQueue eq;
    Switch sw("sw", eq, 3, switchConfig());
    std::uint64_t got_at_2 = 0;
    sw.setEndpoint(1, [](Tick, Frame &&) {});
    sw.setEndpoint(2, [&](Tick, Frame &&f) { got_at_2 = f.bytes; });
    sw.sendFrom(0, Frame{999, 2, {}});
    eq.run();
    EXPECT_EQ(got_at_2, 999u);
}

TEST(Switch, DeliversToPort299Of300)
{
    // A switch wider than 256 ports reaches its last port, body
    // intact.
    EventQueue eq;
    Switch sw("sw", eq, 300, switchConfig());
    std::uint64_t got = 0;
    sw.setEndpoint(299, [&](Tick, Frame &&f) {
        got = f.body.get<std::uint64_t>();
    });
    sw.sendFrom(0, makeFrame(64, 299, std::uint64_t{0xfeed}));
    eq.run();
    EXPECT_EQ(got, 0xfeedu);
}

// With both sides bound to one timing domain, the link delivers on
// that domain's queue, not on the queue it was built with.
TEST(EthernetLink, SameDomainBindingDeliversOnThatDomainsQueue)
{
    EventQueue built_on;
    sim::DomainScheduler sched("t.eth", units::ns(100), 1);
    sim::TimingDomain &dom = sched.addDomain("d");
    EthernetLink link("e", built_on, platform::params::eth100Config());
    link.bindDomains(sched, dom, dom);
    ASSERT_TRUE(link.domainMode());
    std::vector<std::pair<Tick, std::uint64_t>> got;
    link.setReceiver(1, [&](Tick when, Frame &&f) {
        EXPECT_EQ(when, dom.queue().now());
        got.emplace_back(when, f.body.get<std::uint64_t>());
    });
    const Tick first = link.send(0, makeFrame(512, 0, std::uint64_t{1}));
    const Tick second = link.send(0, makeFrame(512, 0, std::uint64_t{2}));
    EXPECT_EQ(dom.queue().heapSize(), 1u);
    EXPECT_TRUE(built_on.empty());
    sched.run();
    const std::vector<std::pair<Tick, std::uint64_t>> want{{first, 1},
                                                           {second, 2}};
    EXPECT_EQ(got, want);
    EXPECT_EQ(dom.queue().eventsExecuted(), 2u);
    EXPECT_EQ(built_on.eventsScheduled(), 0u);
}

// A burst through a 2-port switch holds one heap node per delivery
// source (port 0's wire, the fabric, port 1's wire), not one per
// frame, and frame i reaches port 1 at (i + 2) * S + 2 * L + F: it
// leaves port 0's serializer at (i + 1) * S, flies L, waits F in the
// fabric, then takes one more serialization S and flight L.
TEST(Switch, BurstKeepsOneHeapNodePerSource)
{
    EventQueue eq;
    Switch::Config cfg = switchConfig();
    Switch sw("sw", eq, 2, cfg);
    std::vector<std::pair<Tick, std::uint64_t>> got;
    sw.setEndpoint(0, [](Tick, Frame &&) {});
    sw.setEndpoint(1, [&](Tick when, Frame &&f) {
        got.emplace_back(when, f.body.get<std::uint64_t>());
    });
    constexpr std::uint64_t kFrames = 64;
    constexpr std::uint64_t kPayload = 1000;
    for (std::uint64_t i = 0; i < kFrames; ++i)
        sw.sendFrom(0, makeFrame(kPayload, 1, std::uint64_t{i}));
    constexpr std::size_t kSources = 3;
    std::size_t max_heap = eq.heapSize();
    while (eq.runOne())
        max_heap = std::max(max_heap, eq.heapSize());
    EXPECT_LE(max_heap, kSources);

    const Tick s = units::transferTicks(kPayload + frameOverheadBytes,
                                        sw.port(0).lineRate());
    const Tick l = units::ns(cfg.port.latency_ns);
    const Tick f = units::ns(cfg.forward_ns);
    ASSERT_EQ(got.size(), kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        EXPECT_EQ(got[i].first, (i + 2) * s + 2 * l + f) << "frame " << i;
        EXPECT_EQ(got[i].second, i);
    }
    EXPECT_EQ(eq.eventsExecuted(), 3 * kFrames);
}

class TcpFixture : public ::testing::Test
{
  protected:
    TcpFixture() : sw("sw", eq, 2, switchConfig()) {}

    /** Make a connected pair with the given configs. */
    std::uint32_t
    makePair(const TcpStack::Config &a, const TcpStack::Config &b)
    {
        alice = std::make_unique<TcpStack>("alice", eq, sw, a);
        bob = std::make_unique<TcpStack>("bob", eq, sw, b);
        return alice->connect(*bob);
    }

    /** Stream @p bytes on @p flows parallel flows; return Gb/s. */
    double
    measureGbps(std::uint64_t bytes, std::uint32_t flows)
    {
        std::vector<std::uint32_t> ids;
        for (std::uint32_t i = 0; i < flows; ++i)
            ids.push_back(alice->connect(*bob));
        const Tick start = eq.now();
        Tick last = 0;
        std::uint32_t done = 0;
        for (auto id : ids) {
            alice->send(id, bytes / flows, [&](Tick t) {
                ++done;
                last = std::max(last, t);
            });
        }
        eq.run();
        EXPECT_EQ(done, flows);
        return units::toGbps(static_cast<double>(bytes) /
                             units::toSeconds(last - start));
    }

    EventQueue eq;
    Switch sw;
    std::unique_ptr<TcpStack> alice, bob;
};

TEST_F(TcpFixture, DeliversAllBytesInOrder)
{
    const auto id = makePair(fpgaTcpConfig(0, 250e6),
                             fpgaTcpConfig(1, 250e6));
    bool done = false;
    alice->send(id, 1 << 20, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(bob->bytesReceived(id), 1u << 20);
}

// The host stack finishes receive processing of a 64 B segment before
// that of the 1984 B segment the FPGA stack sent ahead of it; the
// receiver holds the short one, so the application still gets every
// byte in order, in one delivery.
TEST_F(TcpFixture, ReassemblesSegmentsThatFinishOutOfOrder)
{
    const auto id = makePair(fpgaTcpConfig(0, 250e6), hostTcpConfig(1));
    std::vector<std::uint64_t> deliveries;
    bob->setReceiveCallback([&](std::uint32_t, std::uint64_t bytes) {
        deliveries.push_back(bytes);
    });
    bool done = false;
    alice->send(id, 2048, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(deliveries, (std::vector<std::uint64_t>{2048}));
    EXPECT_EQ(bob->outOfOrderSegments(), 1u);
    EXPECT_EQ(alice->duplicateAcks(), 1u);
    EXPECT_EQ(bob->bytesReceived(id), 2048u);
}

TEST_F(TcpFixture, EmptySendCompletes)
{
    const auto id = makePair(fpgaTcpConfig(0, 250e6),
                             fpgaTcpConfig(1, 250e6));
    bool done = false;
    alice->send(id, 0, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST_F(TcpFixture, FpgaStackSaturates100GWithOneFlow)
{
    makePair(fpgaTcpConfig(0, 250e6), fpgaTcpConfig(1, 250e6));
    const double gbps = measureGbps(64ull << 20, 1);
    EXPECT_GT(gbps, 90.0); // paper: saturates with MTU 2 KiB, 1 flow
}

TEST_F(TcpFixture, HostStackSingleFlowCapsWellBelowLineRate)
{
    makePair(hostTcpConfig(0), hostTcpConfig(1));
    const double gbps = measureGbps(64ull << 20, 1);
    EXPECT_LT(gbps, 45.0);
    EXPECT_GT(gbps, 15.0);
}

TEST_F(TcpFixture, HostStackFourFlowsSaturate)
{
    makePair(hostTcpConfig(0), hostTcpConfig(1));
    const double gbps = measureGbps(64ull << 20, 4);
    EXPECT_GT(gbps, 85.0); // paper: 4 flows needed to saturate
}

TEST_F(TcpFixture, FpgaStackThroughputIndependentOfFlows)
{
    makePair(fpgaTcpConfig(0, 250e6), fpgaTcpConfig(1, 250e6));
    const double one = measureGbps(32ull << 20, 1);
    const double four = measureGbps(32ull << 20, 4);
    EXPECT_NEAR(one, four, one * 0.1);
}

TEST_F(TcpFixture, PingPongLatencyOrdering)
{
    // Half-round-trip latency of a small transfer: FPGA stack should
    // be several times lower than the Linux stack.
    auto ping = [&](const TcpStack::Config &ca,
                    const TcpStack::Config &cb) {
        EventQueue q;
        Switch s("s", q, 2, switchConfig());
        TcpStack a("a", q, s, ca), b("b", q, s, cb);
        const auto id = a.connect(b);
        const std::uint64_t size = 2048;
        Tick end = 0;
        b.setReceiveCallback([&](std::uint32_t f, std::uint64_t) {
            if (b.bytesReceived(f) >= size)
                b.send(f, size, [](Tick) {});
        });
        a.setReceiveCallback([&](std::uint32_t f, std::uint64_t) {
            if (a.bytesReceived(f) >= size && end == 0)
                end = q.now();
        });
        a.send(id, size, [](Tick) {});
        q.run();
        EXPECT_GT(end, 0u);
        return units::toMicros(end) / 2.0;
    };
    const double fpga_us =
        ping(fpgaTcpConfig(0, 250e6), fpgaTcpConfig(1, 250e6));
    const double host_us = ping(hostTcpConfig(0), hostTcpConfig(1));
    EXPECT_LT(fpga_us, 10.0);
    EXPECT_GT(host_us, 2.0 * fpga_us);
}

TEST_F(TcpFixture, WindowLimitsInflight)
{
    TcpStack::Config cfg = fpgaTcpConfig(0, 250e6);
    cfg.window_bytes = 4096;
    const auto id = makePair(cfg, fpgaTcpConfig(1, 250e6));
    bool done = false;
    alice->send(id, 1 << 20, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done); // still completes, just ack-clocked
    EXPECT_EQ(bob->bytesReceived(id), 1u << 20);
}

} // namespace
} // namespace enzian::net
