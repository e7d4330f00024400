/**
 * @file
 * Unit tests for the ECI link and fabric timing models.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eci/eci_link.hh"
#include "platform/params.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::eci {
namespace {

EciMsg
dataMsg(Addr addr, mem::NodeId src = mem::NodeId::Fpga)
{
    EciMsg m;
    m.op = Opcode::PEMD;
    m.src = src;
    m.dst = src == mem::NodeId::Fpga ? mem::NodeId::Cpu
                                     : mem::NodeId::Fpga;
    m.addr = addr;
    return m;
}

TEST(EciLink, EffectiveBandwidthMatchesConfig)
{
    EventQueue eq;
    EciLink::Config cfg = platform::params::eciLinkConfig();
    EciLink link("l", eq, cfg);
    // 12 lanes x 10 Gb/s x framing efficiency.
    EXPECT_NEAR(link.effectiveBandwidth(),
                12 * 10e9 / 8.0 * cfg.efficiency, 1e7);
}

TEST(EciLink, DeliveryIncludesProcessingAndWire)
{
    EventQueue eq;
    EciLink::Config cfg = platform::params::eciLinkConfig();
    EciLink link("l", eq, cfg);
    bool delivered = false;
    Tick delivery = 0;
    link.setReceiver(mem::NodeId::Cpu, [&](const EciMsg &) {
        delivered = true;
    });
    link.setReceiver(mem::NodeId::Fpga, [&](const EciMsg &) {});
    delivery = link.send(dataMsg(0));
    // fpga_proc + wire + cpu_proc + serialization of 160 bytes.
    const double expect_ns = cfg.fpga_proc_ns + cfg.wire_latency_ns +
                             cfg.cpu_proc_ns +
                             160.0 / link.effectiveBandwidth() * 1e9;
    EXPECT_NEAR(units::toNanos(delivery), expect_ns, 2.0);
    eq.run();
    EXPECT_TRUE(delivered);
}

TEST(EciLink, BackToBackSerializes)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    const Tick d1 = link.send(dataMsg(0));
    const Tick d2 = link.send(dataMsg(128));
    const Tick ser = units::transferTicks(160,
                                          link.effectiveBandwidth());
    EXPECT_EQ(d2 - d1, ser);
}

TEST(EciLink, OppositeDirectionsDoNotContend)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    link.setReceiver(mem::NodeId::Fpga, [](const EciMsg &) {});
    const Tick up = link.send(dataMsg(0, mem::NodeId::Fpga));
    const Tick down = link.send(dataMsg(0, mem::NodeId::Cpu));
    // The CPU-side engine is faster, so downstream delivery can even
    // be earlier; key property: no serialization coupling (delta is
    // only the processing asymmetry).
    const double asym_ns = 0.0; // both directions pay cpu+fpga proc
    EXPECT_NEAR(units::toNanos(down), units::toNanos(up) + asym_ns,
                1.0);
}

// A message takes its place among same-tick events when it is sent,
// as one event per message would: B is sent before the one-shot is
// scheduled at B's delivery tick, so B runs first although A is still
// in flight at that point.
TEST(EciLink, SameTickDeliveryFollowsSendOrder)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    std::vector<std::string> order;
    link.setReceiver(mem::NodeId::Cpu, [&](const EciMsg &m) {
        order.push_back(m.addr == 0 ? "A" : "B");
    });
    link.send(dataMsg(0));
    const Tick b = link.send(dataMsg(128));
    eq.schedule(b, [&]() { order.push_back("one-shot"); });
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "one-shot"}));
}

TEST(EciLink, LaneDialDownScalesBandwidth)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    const double full = link.effectiveBandwidth();
    link.setLanes(4); // early ECI bring-up configuration
    EXPECT_NEAR(link.effectiveBandwidth(), full / 3.0, 1e6);
}

TEST(EciLink, CountsTraffic)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    link.send(dataMsg(0));
    link.send(dataMsg(128));
    EXPECT_EQ(link.messagesSent(), 2u);
    EXPECT_EQ(link.bytesSent(), 2u * 160u);
}

TEST(EciLink, TapObservesMessages)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    int taps = 0;
    link.addTap([&](Tick, const EciMsg &) { ++taps; });
    link.send(dataMsg(0));
    EXPECT_EQ(taps, 1);
}

TEST(EciLink, AddTapChainsObservers)
{
    EventQueue eq;
    EciLink link("l", eq, platform::params::eciLinkConfig());
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    // Two independent observers, attached in order, both see every
    // message; attaching the second never disconnects the first.
    std::vector<int> order;
    link.addTap([&](Tick, const EciMsg &) { order.push_back(1); });
    link.addTap([&](Tick, const EciMsg &) { order.push_back(2); });
    EXPECT_EQ(link.tapCount(), 2u);
    link.send(dataMsg(0));
    link.send(dataMsg(128));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

class EciLinkDeathTest : public ::testing::Test
{
  protected:
    /** Bind the link across a CPU and an FPGA domain. */
    void
    bindDomains()
    {
        link.bindDomains(sched, sched.addDomain("cpu"),
                         sched.addDomain("fpga"));
    }

    EventQueue eq;
    sim::DomainScheduler sched{
        "t.sched",
        EciLink::minCrossLatency(platform::params::eciLinkConfig()), 1};
    EciLink link{"l", eq, platform::params::eciLinkConfig()};
};

TEST_F(EciLinkDeathTest, MessageToItsOwnSenderDies)
{
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    EciMsg m = dataMsg(0, mem::NodeId::Cpu);
    m.dst = mem::NodeId::Cpu;
    EXPECT_DEATH(link.send(m), "sent itself");
}

// Lane faults and flaps touch both directions from one thread, and a
// flap cannot reach messages already in a cross-domain channel.
TEST_F(EciLinkDeathTest, FailLanesInDomainModeDies)
{
    bindDomains();
    EXPECT_DEATH(link.failLanes(1), "domain mode");
}

TEST_F(EciLinkDeathTest, RestoreLanesInDomainModeDies)
{
    bindDomains();
    EXPECT_DEATH(link.restoreLanes(12), "domain mode");
}

TEST_F(EciLinkDeathTest, FlapInDomainModeDies)
{
    bindDomains();
    EXPECT_DEATH(link.flap(units::us(1.0)), "domain mode");
}

TEST(EciFabric, SingleLinkPolicyUsesLinkZero)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2,
                  BalancePolicy::SingleLink);
    fab.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    for (Addr a = 0; a < 16 * 128; a += 128)
        fab.send(dataMsg(a));
    EXPECT_EQ(fab.link(0).messagesSent(), 16u);
    EXPECT_EQ(fab.link(1).messagesSent(), 0u);
}

TEST(EciFabric, RoundRobinAlternates)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2,
                  BalancePolicy::RoundRobin);
    fab.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    for (Addr a = 0; a < 10 * 128; a += 128)
        fab.send(dataMsg(a));
    EXPECT_EQ(fab.link(0).messagesSent(), 5u);
    EXPECT_EQ(fab.link(1).messagesSent(), 5u);
}

TEST(EciFabric, AddressHashSpreadsStrides)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2,
                  BalancePolicy::AddressHash);
    fab.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    const std::uint64_t n = 1000;
    for (Addr a = 0; a < n * 128; a += 128)
        fab.send(dataMsg(a));
    const double frac0 =
        static_cast<double>(fab.link(0).messagesSent()) / n;
    EXPECT_GT(frac0, 0.40);
    EXPECT_LT(frac0, 0.60);
}

TEST(EciFabric, AddressHashIsPerLineStable)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2,
                  BalancePolicy::AddressHash);
    fab.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    fab.send(dataMsg(0x4000));
    const auto m0 = fab.link(0).messagesSent();
    fab.send(dataMsg(0x4000)); // same line -> same link
    EXPECT_EQ(fab.link(0).messagesSent() % 2, 0u);
    EXPECT_TRUE(fab.link(0).messagesSent() == 2 * m0 ||
                fab.link(1).messagesSent() == 2);
}

TEST(EciFabric, LeastLoadedBalancesBursts)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2,
                  BalancePolicy::LeastLoaded);
    fab.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    for (int i = 0; i < 100; ++i)
        fab.send(dataMsg(0)); // same address: hash would pin one link
    EXPECT_EQ(fab.link(0).messagesSent(), 50u);
    EXPECT_EQ(fab.link(1).messagesSent(), 50u);
}

TEST(EciFabric, AggregateBandwidth)
{
    EventQueue eq;
    EciFabric fab("f", eq, platform::params::eciLinkConfig(), 2);
    EXPECT_NEAR(fab.effectiveBandwidth(),
                2 * fab.link(0).effectiveBandwidth(), 1.0);
}

} // namespace
} // namespace enzian::eci
