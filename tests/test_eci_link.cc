/**
 * @file
 * Unit tests for the ECI link and fabric timing models.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
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

/** What one run of phyFaultRun() delivered and lost. */
struct PhyRun
{
    /** (delivery tick, addr) per receiving node, in arrival order. */
    std::array<std::vector<std::pair<Tick, Addr>>, 2> got;
    std::uint64_t sent = 0;
    std::uint64_t reconciled = 0;
    std::uint64_t retrains = 0;
    std::uint32_t lanes = 0;

    bool
    operator==(const PhyRun &o) const
    {
        return got == o.got && sent == o.sent &&
               reconciled == o.reconciled && retrains == o.retrains &&
               lanes == o.lanes;
    }
};

/**
 * Both nodes send a line every 200 ns for 60 us through one link that
 * fails 8 lanes at 5 us, restores them at 20 us (whose retrain leaves
 * a backlog queued behind the serializers) and flaps at 40 us with
 * that backlog in flight. @p threads == 0 runs on one queue, else the
 * link joins a CPU and an FPGA domain run on that many threads.
 */
PhyRun
phyFaultRun(std::uint32_t threads)
{
    const EciLink::Config cfg = platform::params::eciLinkConfig();
    EventQueue eq;
    std::unique_ptr<sim::DomainScheduler> sched;
    EciLink link("l", eq, cfg);
    if (threads > 0) {
        sched = std::make_unique<sim::DomainScheduler>(
            "t.sched", EciLink::minCrossLatency(cfg), threads);
        sim::TimingDomain &cpu = sched->addDomain("cpu");
        sim::TimingDomain &fpga = sched->addDomain("fpga");
        link.bindDomains(*sched, cpu, fpga);
    }
    PhyRun r;
    std::array<std::uint64_t, 2> sent{0, 0};
    for (const mem::NodeId node : {mem::NodeId::Cpu, mem::NodeId::Fpga}) {
        const auto i = static_cast<std::size_t>(node);
        EventQueue &q = link.sendQueue(node);
        // Each side runs on its own domain: it records and counts only
        // into its own slot.
        link.setReceiver(node, [&r, qp = &q, i](const EciMsg &m) {
            r.got[i].emplace_back(qp->now(), m.addr);
        });
        for (Tick t = 0; t < units::us(60.0); t += units::ns(200.0)) {
            q.schedule(t, [&link, &sent, node, i, t]() {
                link.send(dataMsg(t, node));
                ++sent[i];
            });
        }
    }
    link.failLanes(units::us(5.0), 8);
    link.restoreLanes(units::us(20.0), cfg.lanes);
    link.flap(units::us(40.0), units::us(2.0));
    if (sched)
        sched->run();
    else
        eq.run();
    r.sent = sent[0] + sent[1];
    r.reconciled = link.creditsReconciled();
    r.retrains = link.retrains();
    r.lanes = link.lanes();
    return r;
}

// Lane faults and flaps run one event per direction on that
// direction's sending queue, and the receiver drops what a flap
// caught in flight; so the result is the same on one queue as across
// two domains at any thread count.
TEST(EciLink, LaneFaultsAndFlapMatchOneQueueAtEveryThreadCount)
{
    const PhyRun one = phyFaultRun(0);
    EXPECT_EQ(one.retrains, 3u);
    EXPECT_EQ(one.lanes, 12u);
    EXPECT_GT(one.reconciled, 10u);
    EXPECT_EQ(one.got[0].size() + one.got[1].size() + one.reconciled,
              one.sent);
    EXPECT_TRUE(phyFaultRun(1) == one);
    EXPECT_TRUE(phyFaultRun(4) == one);
}

class EciLinkDeathTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    EciLink link{"l", eq, platform::params::eciLinkConfig()};
};

TEST_F(EciLinkDeathTest, MessageToItsOwnSenderDies)
{
    link.setReceiver(mem::NodeId::Cpu, [](const EciMsg &) {});
    EciMsg m = dataMsg(0, mem::NodeId::Cpu);
    m.dst = mem::NodeId::Cpu;
    EXPECT_DEATH(link.send(m), "sent itself");
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
