/**
 * @file
 * Tests for the adaptive-epoch scheduler, no-send promises and typed
 * channel lanes: epochs must grow exactly to the provable delivery
 * bound (and shrink back on new traffic), contract violations must
 * die, and every adaptive configuration must stay bit-identical
 * across thread counts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "obs/registry.hh"
#include "platform/enzian_machine.hh"
#include "sim/channel_lane.hh"
#include "sim/cross_domain_channel.hh"
#include "sim/domain_scheduler.hh"

namespace enzian {
namespace {

constexpr Tick kLookahead = 100;

sim::DomainScheduler::Options
adaptiveOpts()
{
    sim::DomainScheduler::Options o;
    o.adaptive = true;
    return o;
}

TEST(AdaptiveEpochs, GrowsToPromiseBoundAndExactBoundSendLands)
{
    // Domain a runs dense local events through [0, 600) under a
    // no-sends-before-600 promise, then sends at exactly now +
    // lookahead. The scheduler must cover the promised window in few,
    // long epochs, and the exact-bound message must still land on
    // time.
    sim::DomainScheduler sched("t.agrow", kLookahead, 1,
                               adaptiveOpts());
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);

    a.promiseNoSendsBefore(600);
    for (Tick t = 0; t < 600; t += 5)
        a.queue().schedule(t, []() {});
    Tick delivered = 0;
    a.queue().schedule(600, [&]() {
        ab.push(600 + kLookahead,
                [&]() { delivered = b.queue().now(); });
    });
    sched.run();

    EXPECT_EQ(delivered, 600 + kLookahead);
    EXPECT_GT(sched.adaptiveGrows(), 0u);
    // 120 dense events would have needed 7 fixed epochs to reach tick
    // 600; the promise lets far fewer cover the same span.
    EXPECT_LT(sched.epochs(), 7u);
}

TEST(AdaptiveEpochs, ShrinksBackOnNewTraffic)
{
    // A promised-quiescent phase (grown epochs) followed by chatty
    // ping-pong: the first post-growth epoch must fall back to the
    // fixed step, counted as a shrink.
    sim::DomainScheduler sched("t.ashrink", kLookahead, 1,
                               adaptiveOpts());
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    auto &ba = sched.channel(b, a);

    a.promiseNoSendsBefore(1000);
    for (Tick t = 0; t < 1000; t += 10)
        a.queue().schedule(t, []() {});
    int hops = 0;
    std::function<void()> pong;
    std::function<void()> ping = [&]() {
        if (++hops >= 8)
            return;
        ab.push(a.queue().now() + kLookahead, [&]() { pong(); });
    };
    pong = [&]() {
        if (++hops >= 8)
            return;
        ba.push(b.queue().now() + kLookahead, [&]() { ping(); });
    };
    a.queue().schedule(1000, [&]() { ping(); });
    sched.run();

    EXPECT_EQ(hops, 8);
    EXPECT_GT(sched.adaptiveGrows(), 0u);
    EXPECT_GT(sched.adaptiveShrinks(), 0u);
}

TEST(AdaptiveEpochs, NeverShorterThanFixedAndCapped)
{
    // No promises, no idle gaps: adaptive must degenerate to the
    // fixed schedule (same epoch count as a fixed-mode run).
    auto run = [](bool adaptive) {
        sim::DomainScheduler sched(
            adaptive ? "t.adegen.a" : "t.adegen.f", kLookahead, 1,
            adaptive ? adaptiveOpts() : sim::DomainScheduler::Options());
        auto &a = sched.addDomain("a");
        auto &b = sched.addDomain("b");
        auto &ab = sched.channel(a, b);
        for (int i = 0; i < 20; ++i) {
            a.queue().schedule(i * kLookahead, [&ab, &a]() {
                ab.push(a.queue().now() + kLookahead, []() {});
            });
        }
        sched.run();
        return sched.epochs();
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(AdaptiveEpochsDeath, PromiseViolationDies)
{
    sim::DomainScheduler sched("t.aviolate", kLookahead, 1,
                               adaptiveOpts());
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    a.promiseNoSendsBefore(500);
    a.queue().schedule(10, [&]() {
        ab.push(10 + kLookahead, []() {});
    });
    EXPECT_DEATH(sched.run(), "promise");
}

TEST(AdaptiveEpochsDeath, PerChannelLookaheadViolationDies)
{
    // A channel may declare a wider-than-base lookahead; a push that
    // honors the base but not the channel's own bound must die.
    sim::DomainScheduler sched("t.chanviolate", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b, 250);
    EXPECT_EQ(ab.lookahead(), 250u);
    EXPECT_DEATH(ab.push(kLookahead, []() {}), "lookahead");
}

TEST(AdaptiveEpochsDeath, ChannelBelowBaseLookaheadDies)
{
    // The base lookahead is every channel's floor (it is the fixed
    // epoch step); a channel asking for less must die, not shrink the
    // step.
    sim::DomainScheduler sched("t.chanbelow", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    EXPECT_DEATH(sched.channel(a, b, kLookahead - 1), "below");
}

TEST(ChannelLane, PreservesPushOrderAcrossLaneAndGenericEntries)
{
    sim::DomainScheduler sched("t.lane", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    sim::ChannelLane<int> lane;
    std::vector<int> order;
    lane.attach(ab, [&](Tick, int &&v) { order.push_back(v); });

    a.queue().schedule(0, [&]() {
        lane.push(kLookahead, 1);
        ab.push(kLookahead, [&]() { order.push_back(2); });
        lane.push(kLookahead, 3);
    });
    sched.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ChannelLane, RecyclesSlotsAcrossEpochs)
{
    // Steady traffic far beyond one chunk's worth of total messages:
    // the arena must recycle retired slots at barriers instead of
    // growing without bound.
    sim::DomainScheduler sched("t.lanerec", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    sim::ChannelLane<std::uint64_t> lane;
    std::uint64_t sum = 0;
    lane.attach(ab, [&](Tick, std::uint64_t &&v) { sum += v; });

    constexpr int kEpochs = 50;
    constexpr int kPerEpoch = 64;
    for (int e = 0; e < kEpochs; ++e) {
        a.queue().schedule(e * kLookahead, [&, e]() {
            for (int i = 0; i < kPerEpoch; ++i)
                lane.push(a.queue().now() + kLookahead, 1);
            (void)e;
        });
    }
    sched.run();
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kEpochs) * kPerEpoch);
    // <= 2 epochs of slots live at once (in flight + not yet
    // recycled): one 256-slot chunk is enough for 64/epoch.
    EXPECT_LE(lane.chunksAllocated(), 1u);
}

/** Completion tick traces of a small bidirectional ECI workload. */
struct MachineTrace
{
    std::vector<Tick> cpu, fpga;
    std::uint64_t events = 0;
    std::string registryJson;

    bool sameSimulation(const MachineTrace &o) const
    {
        return cpu == o.cpu && fpga == o.fpga && events == o.events;
    }
};

MachineTrace
machineWorkload(const platform::EnzianMachine::Config &base,
                std::uint32_t threads)
{
    platform::EnzianMachine::Config mc = base;
    mc.cpu_dram_bytes = 32ull << 20;
    mc.fpga_dram_bytes = 32ull << 20;
    mc.cores = 2;
    mc.threads = threads;
    mc.name = "tadapt";
    platform::EnzianMachine m(mc);

    MachineTrace tr;
    std::vector<std::uint8_t> buf(cache::lineSize, 0x5a);
    for (std::uint32_t i = 0; i < 24; ++i) {
        const Addr fline = mem::AddressMap::fpgaDramBase +
                           static_cast<Addr>(i) * cache::lineSize;
        m.cpuRemote().writeLine(fline, buf.data(), [&tr](Tick t) {
            tr.cpu.push_back(t);
        });
        const Addr cline = static_cast<Addr>(i) * cache::lineSize;
        m.fpgaRemote().readLineUncached(cline, nullptr, [&tr](Tick t) {
            tr.fpga.push_back(t);
        });
    }
    tr.events = m.run();
    // A long idle gap before phase 2 is exactly what adaptive epochs
    // exploit; results must not depend on it.
    const Tick phase2 = units::us(5.0);
    for (std::uint32_t i = 0; i < 24; ++i) {
        const Addr fline = mem::AddressMap::fpgaDramBase +
                           static_cast<Addr>(i) * cache::lineSize;
        m.fpgaEventq().schedule(phase2, [&m, &tr, fline]() {
            m.fpgaHome().localRead(fline, nullptr, [&tr](Tick t) {
                tr.fpga.push_back(t);
            });
        });
    }
    tr.events += m.run();
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    tr.registryJson = os.str();
    return tr;
}

TEST(AdaptiveMachine, RegistryByteIdenticalAcrossThreadCounts)
{
    platform::EnzianMachine::Config mc;
    mc.adaptive_epochs = true;
    const auto r1 = machineWorkload(mc, 1);
    const auto r2 = machineWorkload(mc, 2);
    const auto r4 = machineWorkload(mc, 4);
    const auto r8 = machineWorkload(mc, 8);
    ASSERT_EQ(r1.cpu.size(), 24u);
    ASSERT_EQ(r1.fpga.size(), 48u);
    EXPECT_TRUE(r1.sameSimulation(r2));
    EXPECT_TRUE(r1.sameSimulation(r4));
    EXPECT_TRUE(r1.sameSimulation(r8));
    // The whole observable state of the machine, byte for byte —
    // including the scheduler's own epoch_len / adaptive_* stats.
    EXPECT_FALSE(r1.registryJson.empty());
    EXPECT_EQ(r1.registryJson, r2.registryJson);
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.registryJson, r8.registryJson);
}

TEST(AdaptiveMachine, AdaptiveMatchesFixedSimulation)
{
    // The collision-free ECI workload above must produce identical
    // completion ticks whether epochs grow or not: adaptive changes
    // the synchronization schedule, never the simulation.
    platform::EnzianMachine::Config fixed;
    platform::EnzianMachine::Config adaptive;
    adaptive.adaptive_epochs = true;
    const auto rf = machineWorkload(fixed, 1);
    const auto ra = machineWorkload(adaptive, 1);
    EXPECT_EQ(rf.cpu, ra.cpu);
    EXPECT_EQ(rf.fpga, ra.fpga);
    EXPECT_EQ(rf.events, ra.events);
}

/** Rack KV workload (mirrors test_cluster_parallel) with adaptive. */
std::pair<std::vector<Tick>, std::string>
rackKvWorkload(std::uint32_t threads)
{
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint32_t kValueBytes = 128;
    cluster::EnzianCluster::Config cfg;
    cfg.nodes = kNodes;
    cfg.threads = threads;
    cfg.adaptive_epochs = true;
    cluster::EnzianCluster rack(cfg);

    cluster::ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1, 2};
    kcfg.value_bytes = kValueBytes;
    cluster::ReplicatedKv kv("adaptkv", rack, kcfg);

    std::vector<std::vector<Tick>> trace(kNodes);
    std::vector<std::uint8_t> val(kValueBytes, 0x77);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        for (std::uint64_t k = 0; k < 4; ++k) {
            kv.put(n, n * 8 + k, val.data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        }
    }
    rack.run();

    const Tick phase2 = units::us(1000.0);
    std::vector<std::vector<std::uint8_t>> got(
        kNodes, std::vector<std::uint8_t>(kValueBytes));
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        rack.node(n).fpgaEventq().schedule(phase2, [&, n]() {
            kv.get(n, ((n + 1) % kNodes) * 8, got[n].data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        });
    }
    rack.run();

    std::vector<Tick> ticks;
    for (const auto &t : trace)
        ticks.insert(ticks.end(), t.begin(), t.end());
    for (const auto &v : got)
        EXPECT_EQ(v, val);
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    return {ticks, os.str()};
}

TEST(AdaptiveCluster, RegistryByteIdenticalAcrossThreadCounts)
{
    const auto r1 = rackKvWorkload(1);
    const auto r2 = rackKvWorkload(2);
    const auto r4 = rackKvWorkload(4);
    const auto r8 = rackKvWorkload(8);
    ASSERT_EQ(r1.first.size(), 4u * 5u);
    EXPECT_EQ(r1.first, r2.first);
    EXPECT_EQ(r1.first, r4.first);
    EXPECT_EQ(r1.first, r8.first);
    EXPECT_FALSE(r1.second.empty());
    EXPECT_EQ(r1.second, r2.second);
    EXPECT_EQ(r1.second, r4.second);
    EXPECT_EQ(r1.second, r8.second);
}

} // namespace
} // namespace enzian
