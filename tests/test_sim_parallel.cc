/**
 * @file
 * Tests for the conservative parallel simulation layer: cross-domain
 * channel merge ordering, epoch-boundary delivery, stale cancels
 * across domains, thread-count determinism of the scheduler and of a
 * full machine, a link direction (sim::Wire) on one queue and
 * across domains, and the chaos-scenario registry byte-compare.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "eci/eci_link.hh"
#include "fault/chaos_scenario.hh"
#include "fault/fault_plan.hh"
#include "platform/enzian_machine.hh"
#include "platform/params.hh"
#include "sim/cross_domain_channel.hh"
#include "sim/domain_scheduler.hh"
#include "sim/wire.hh"

namespace enzian {
namespace {

constexpr Tick kLookahead = 100;

TEST(CrossDomainChannel, DeterministicSameTickMerge)
{
    // Two source domains deliver into one destination at the same
    // tick; the barrier merge must order them by source domain id no
    // matter in which order the channels were created.
    sim::DomainScheduler sched("t.merge", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &c = sched.addDomain("c");
    // Deliberately create the higher-id source's channel first.
    auto &fromC = sched.channel(c, a);
    auto &fromB = sched.channel(b, a);

    std::vector<std::string> order;
    b.queue().schedule(10, [&]() {
        fromB.push(10 + kLookahead, [&]() { order.push_back("b"); });
    });
    c.queue().schedule(10, [&]() {
        fromC.push(10 + kLookahead, [&]() { order.push_back("c"); });
    });
    sched.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "b");
    EXPECT_EQ(order[1], "c");
}

TEST(CrossDomainChannel, EpochBoundaryDelivery)
{
    // A message sent at tick t with the minimum legal delivery tick
    // t + L lands exactly one epoch later, at its timestamp.
    sim::DomainScheduler sched("t.boundary", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);

    Tick delivered = 0;
    Tick deliveredLate = 0;
    a.queue().schedule(0, [&]() {
        ab.push(kLookahead, [&]() { delivered = b.queue().now(); });
        ab.push(kLookahead + 5,
                [&]() { deliveredLate = b.queue().now(); });
    });
    sched.run();
    EXPECT_EQ(delivered, kLookahead);
    EXPECT_EQ(deliveredLate, kLookahead + 5);
    EXPECT_EQ(ab.messagesForwarded(), 2u);
}

TEST(CrossDomainChannel, StaleCancelAcrossDomainsIsNoOp)
{
    // Domain a asks to cancel an event in domain b that has already
    // run by the time the cancellation crosses the lookahead gap;
    // the cancel must be an exact no-op.
    sim::DomainScheduler sched("t.cancel", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);

    bool ran = false;
    const EventId id = b.queue().schedule(50, [&]() { ran = true; });
    a.queue().schedule(0, [&]() {
        // Delivered at >= 100 > 50: the target event already fired.
        ab.push(kLookahead, [&, id]() { b.queue().cancel(id); });
    });
    sched.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(b.queue().empty());
    EXPECT_EQ(b.queue().eventsExecuted(), 2u);
}

TEST(CrossDomainChannel, LookaheadViolationDies)
{
    sim::DomainScheduler sched("t.violate", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    EXPECT_DEATH(ab.push(kLookahead - 1, []() {}), "lookahead");
}

/** Ping-pong across two domains; returns the per-hop tick trace. */
std::vector<Tick>
pingPongTrace(std::uint32_t threads, int rounds)
{
    sim::DomainScheduler sched("t.pp", kLookahead, threads);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    auto &ba = sched.channel(b, a);

    // Traces are per-domain (no cross-thread sharing) and merged
    // deterministically after the run.
    std::vector<Tick> atrace, btrace;
    std::function<void(int)> hopA = [&](int left) {
        atrace.push_back(a.queue().now());
        if (left > 0) {
            ab.push(a.queue().now() + kLookahead,
                    [&, left]() { /* b side */
                                  btrace.push_back(b.queue().now());
                                  if (left > 1) {
                                      ba.push(b.queue().now() +
                                                  kLookahead,
                                              [&, left]() {
                                                  hopA(left - 2);
                                              });
                                  }
                    });
        }
    };
    a.queue().schedule(7, [&]() { hopA(rounds); });
    sched.run();

    std::vector<Tick> merged = atrace;
    merged.insert(merged.end(), btrace.begin(), btrace.end());
    merged.push_back(sched.eventsExecuted());
    merged.push_back(sched.epochs());
    return merged;
}

TEST(DomainScheduler, ThreadCountDeterminism)
{
    const auto t1 = pingPongTrace(1, 40);
    const auto t2 = pingPongTrace(2, 40);
    const auto t4 = pingPongTrace(4, 40);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t4);
    EXPECT_GT(t1.size(), 40u);
}

TEST(DomainScheduler, DomainsKeepTheirThread)
{
    // Domain i always runs on participant i % P, and the caller of
    // run() is participant 0. Local self-rescheduling events keep
    // every domain busy across many epochs; a ping-pong around a ring
    // of channels adds cross-domain deliveries.
    constexpr std::size_t kDomains = 5;
    constexpr Tick kEnd = 40 * kLookahead;
    constexpr Tick kPeriod = 37;
    for (const std::uint32_t threads : {2u, 3u, 4u}) {
        sim::DomainScheduler sched("t.owner", kLookahead, threads);
        std::vector<sim::TimingDomain *> dom;
        for (std::size_t i = 0; i < kDomains; ++i)
            dom.push_back(&sched.addDomain("d" + std::to_string(i)));
        std::vector<sim::CrossDomainChannel *> next;
        for (std::size_t i = 0; i < kDomains; ++i)
            next.push_back(
                &sched.channel(*dom[i], *dom[(i + 1) % kDomains]));

        // One slot per domain, written only by that domain's events.
        std::vector<std::set<std::thread::id>> ran(kDomains);
        std::function<void(std::size_t)> local = [&](std::size_t i) {
            ran[i].insert(std::this_thread::get_id());
            const Tick now = dom[i]->queue().now();
            if (now + kPeriod < kEnd)
                dom[i]->queue().schedule(now + kPeriod,
                                         [&, i]() { local(i); });
        };
        std::function<void(std::size_t, int)> ping = [&](std::size_t i,
                                                         int hops) {
            ran[i].insert(std::this_thread::get_id());
            if (hops == 0)
                return;
            const std::size_t j = (i + 1) % kDomains;
            next[i]->push(dom[i]->queue().now() + kLookahead,
                          [&, j, hops]() { ping(j, hops - 1); });
        };
        for (std::size_t i = 0; i < kDomains; ++i)
            dom[i]->queue().schedule(i, [&, i]() { local(i); });
        dom[0]->queue().schedule(3, [&]() { ping(0, 30); });
        sched.run();

        for (std::size_t i = 0; i < kDomains; ++i)
            ASSERT_EQ(ran[i].size(), 1u)
                << "domain " << i << " at " << threads << " threads";
        EXPECT_EQ(*ran[0].begin(), std::this_thread::get_id());
        for (std::size_t i = 0; i < kDomains; ++i) {
            for (std::size_t j = 0; j < kDomains; ++j) {
                EXPECT_EQ(*ran[i].begin() == *ran[j].begin(),
                          i % threads == j % threads)
                    << "domains " << i << ", " << j << " at " << threads
                    << " threads";
            }
        }
    }
}

TEST(DomainScheduler, RunUntilAdvancesAllDomains)
{
    sim::DomainScheduler sched("t.until", kLookahead, 2);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    int fired = 0;
    a.queue().schedule(30, [&]() { ++fired; });
    b.queue().schedule(500, [&]() { ++fired; });
    sched.runUntil(200);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.queue().now(), 200u);
    EXPECT_EQ(b.queue().now(), 200u);
    EXPECT_EQ(sched.now(), 200u);
    sched.run();
    EXPECT_EQ(fired, 2);
}

/** One item sent on a wire: at @c send, due at @c deliver. */
struct WireSend
{
    Tick send;
    Tick deliver;
    std::uint64_t item;
};

/** Seeded sends for both directions of a link, many on one tick. */
std::array<std::vector<WireSend>, 2>
wireStream()
{
    Rng rng(0x3172E);
    std::array<std::vector<WireSend>, 2> out;
    for (std::size_t dir = 0; dir < 2; ++dir) {
        Tick send = 0;
        Tick tail = 0;
        for (std::uint64_t i = 0; i < 400; ++i) {
            send += rng.below(3) == 0 ? 0 : rng.below(40);
            tail = std::max(tail, send + kLookahead + rng.below(60));
            out[dir].push_back({send, tail, dir * 1000 + i});
        }
    }
    return out;
}

enum class WireMode { OneQueue, TwoDomains, OneDomain };

/** (tick, item) deliveries per direction of wireStream(). */
std::array<std::vector<std::pair<Tick, std::uint64_t>>, 2>
wireDeliveries(WireMode mode, std::uint32_t threads = 1)
{
    const auto stream = wireStream();
    // Each direction's trace is written only by its receiver's
    // domain.
    std::array<std::vector<std::pair<Tick, std::uint64_t>>, 2> got;
    sim::DomainScheduler sched("t.wire", kLookahead, threads);
    EventQueue eq;
    std::array<sim::Wire<std::uint64_t>, 2> wires;
    for (std::size_t dir = 0; dir < 2; ++dir) {
        wires[dir].init(
            eq,
            [&got, dir](Tick when, std::uint64_t &&item) {
                got[dir].emplace_back(when, item);
            },
            "t.wire");
    }
    auto sendAll = [&](std::size_t dir, EventQueue &src) {
        for (const WireSend &s : stream[dir]) {
            src.schedule(s.send, [&wires, dir, s]() {
                wires[dir].push(s.deliver, std::uint64_t{s.item});
            });
        }
    };
    if (mode == WireMode::OneQueue) {
        sendAll(0, eq);
        sendAll(1, eq);
        eq.run();
        return got;
    }
    auto &a = sched.addDomain("a");
    auto &b = mode == WireMode::TwoDomains ? sched.addDomain("b") : a;
    sim::DirDomainBinding binding;
    binding.bind(sched, a, b, kLookahead);
    for (std::size_t dir = 0; dir < 2; ++dir)
        wires[dir].bind(binding, dir);
    sendAll(0, binding.clock(0));
    sendAll(1, binding.clock(1));
    sched.run();
    return got;
}

TEST(Wire, SameDeliveriesOnOneQueueAcrossDomainsAndInOneDomain)
{
    const auto stream = wireStream();
    const auto local = wireDeliveries(WireMode::OneQueue);
    for (std::size_t dir = 0; dir < 2; ++dir) {
        ASSERT_EQ(local[dir].size(), stream[dir].size());
        for (std::size_t i = 0; i < stream[dir].size(); ++i) {
            EXPECT_EQ(local[dir][i].first, stream[dir][i].deliver);
            EXPECT_EQ(local[dir][i].second, stream[dir][i].item);
        }
    }
    EXPECT_EQ(wireDeliveries(WireMode::TwoDomains, 1), local);
    EXPECT_EQ(wireDeliveries(WireMode::TwoDomains, 4), local);
    EXPECT_EQ(wireDeliveries(WireMode::OneDomain), local);
}

/** Completion tick traces of a small bidirectional ECI workload. */
struct MachineTrace
{
    std::vector<Tick> cpu, fpga;
    std::uint64_t events = 0;

    bool operator==(const MachineTrace &o) const
    {
        return cpu == o.cpu && fpga == o.fpga && events == o.events;
    }
};

MachineTrace
machineWorkload(std::uint32_t threads)
{
    platform::EnzianMachine::Config mc;
    mc.cpu_dram_bytes = 32ull << 20;
    mc.fpga_dram_bytes = 32ull << 20;
    mc.cores = 2;
    mc.threads = threads;
    mc.name = "tpar";
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
    // Read-back through the home agent exercises the snoop path.
    // Issued at a fixed absolute tick: after a run a domain queue
    // sits at its last epoch end, not at the last event, so "now"
    // differs from the legacy machine even though the simulation was
    // identical.
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
    return tr;
}

TEST(ParallelMachine, MatchesLegacyMachine)
{
    // The domain-mode machine (threads=1) must reproduce the classic
    // single-queue machine's simulation exactly: same completion
    // ticks, same event count.
    const auto legacy = machineWorkload(0);
    const auto domain1 = machineWorkload(1);
    EXPECT_EQ(legacy.cpu, domain1.cpu);
    EXPECT_EQ(legacy.fpga, domain1.fpga);
    EXPECT_EQ(legacy.events, domain1.events);
    ASSERT_EQ(legacy.cpu.size(), 24u);
    ASSERT_EQ(legacy.fpga.size(), 48u);
}

TEST(ParallelMachine, ThreadCountInvariant)
{
    const auto domain1 = machineWorkload(1);
    const auto domain4 = machineWorkload(4);
    EXPECT_EQ(domain1, domain4);
}

fault::FaultPlan
lossyPlan()
{
    fault::FaultPlan plan;
    plan.seed = 1234;
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::EciMsgDrop;
    drop.prob = 0.02;
    plan.faults.push_back(drop);
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::EciMsgCorrupt;
    corrupt.prob = 0.01;
    plan.faults.push_back(corrupt);
    return plan;
}

TEST(ParallelChaos, RegistryBitIdenticalAcrossThreadCounts)
{
    fault::ChaosConfig cfg;
    cfg.seed = 7;
    cfg.ops = 200;
    cfg.lines = 16;
    const auto plan = lossyPlan();

    const auto r1 = fault::runChaos(plan, cfg, 1);
    const auto r4 = fault::runChaos(plan, cfg, 4);
    EXPECT_TRUE(r1.ok) << (r1.violations.empty()
                               ? std::string()
                               : r1.violations.front());
    EXPECT_TRUE(r4.ok);
    EXPECT_EQ(r1.opsIssued, r4.opsIssued);
    EXPECT_EQ(r1.opsCompleted, r4.opsCompleted);
    EXPECT_EQ(r1.faultsInjected, r4.faultsInjected);
    EXPECT_GT(r1.faultsInjected, 0u);
    // The whole observable state of the simulation, byte for byte.
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.report, r4.report);
}

TEST(ParallelChaos, EveryFaultKindIsThreadCountInvariant)
{
    std::istringstream in(
        "seed 31\n"
        "fault kind=eci-lane-fail param=4 target=0 at_us=5 until_us=40\n"
        "fault kind=eci-link-flap param=2 target=0 at_us=30\n"
        "fault kind=eci-msg-drop prob=0.03 at_us=1 until_us=200\n"
        "fault kind=eci-msg-corrupt prob=0.03 at_us=1 until_us=200\n"
        "fault kind=dram-ecc-correctable prob=0.05 target=0 at_us=1 "
        "until_us=200\n"
        "fault kind=dram-ecc-uncorrectable prob=0.02 target=1 at_us=1 "
        "until_us=200\n"
        "fault kind=net-loss prob=0.05 at_us=1 until_us=100\n"
        "fault kind=net-reorder prob=0.1 param=20 at_us=1 "
        "until_us=100\n"
        "fault kind=rdma-drop prob=0.1 at_us=1 until_us=100\n"
        "fault kind=bmc-rail-glitch target=1 at_us=20\n");
    std::string err;
    const auto plan = fault::FaultPlan::parse(in, err);
    ASSERT_TRUE(plan.has_value()) << err;
    fault::ChaosConfig cfg;
    cfg.seed = 31;
    cfg.ops = 300;
    cfg.lines = 16;
    cfg.with_net = true;
    cfg.with_rdma = true;
    cfg.with_bmc = true;

    const auto r1 = fault::runChaos(*plan, cfg, 1);
    const auto r4 = fault::runChaos(*plan, cfg, 4);
    ASSERT_TRUE(r1.ok) << r1.violations.front() << "\n" << r1.report;
    ASSERT_TRUE(r4.ok) << r4.violations.front();
    EXPECT_EQ(r1.opsCompleted, r1.opsIssued);
    for (std::size_t k = 0; k < fault::faultKindCount; ++k) {
        const std::string kind =
            fault::toString(static_cast<fault::FaultKind>(k));
        EXPECT_NE(r1.report.find("  " + kind + ": "), std::string::npos)
            << kind << " never injected:\n"
            << r1.report;
    }
    EXPECT_EQ(r1.report, r4.report);
    EXPECT_EQ(r1.registryJson, r4.registryJson);
}

} // namespace
} // namespace enzian
