/**
 * @file
 * Unit tests for the fault-injection subsystem: plans, the per-layer
 * fault hooks (ECI link lanes/flaps, message loss, DRAM ECC, TCP
 * loss, RDMA drops, BMC rail glitches) and the recovery machinery
 * each one forces into existence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "base/rng.hh"
#include "bmc/bmc.hh"
#include "eci/eci_link.hh"
#include "fault/chaos_scenario.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/dram_channel.hh"
#include "net/rdma_engine.hh"
#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"

namespace enzian::fault {
namespace {

// --------------------------------------------------------------- plans

TEST(FaultPlan, ParsesTextSpec)
{
    std::istringstream in(
        "# a comment\n"
        "seed 42\n"
        "fault kind=eci-msg-drop prob=0.05 at_us=10 until_us=300\n"
        "fault kind=eci-lane-fail param=3 target=1 at_us=50\n"
        "\n"
        "fault kind=dram-ecc-correctable prob=0.2 target=0\n");
    std::string err;
    const auto plan = FaultPlan::parse(in, err);
    ASSERT_TRUE(plan.has_value()) << err;
    EXPECT_EQ(plan->seed, 42u);
    ASSERT_EQ(plan->faults.size(), 3u);
    EXPECT_EQ(plan->faults[0].kind, FaultKind::EciMsgDrop);
    EXPECT_DOUBLE_EQ(plan->faults[0].prob, 0.05);
    EXPECT_EQ(plan->faults[0].at, units::us(10.0));
    EXPECT_EQ(plan->faults[0].until, units::us(300.0));
    EXPECT_EQ(plan->faults[1].kind, FaultKind::EciLaneFail);
    EXPECT_DOUBLE_EQ(plan->faults[1].param, 3.0);
    EXPECT_EQ(plan->faults[1].target, 1u);
    EXPECT_TRUE(plan->hasKind(FaultKind::DramEccCorrectable));
    EXPECT_FALSE(plan->hasKind(FaultKind::BmcRailGlitch));
}

TEST(FaultPlan, ToStringRoundTrips)
{
    const FaultPlan plan = FaultPlan::random(7);
    std::istringstream in(plan.toString());
    std::string err;
    const auto back = FaultPlan::parse(in, err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->seed, plan.seed);
    ASSERT_EQ(back->faults.size(), plan.faults.size());
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        EXPECT_EQ(back->faults[i].kind, plan.faults[i].kind);
        EXPECT_EQ(back->faults[i].at, plan.faults[i].at);
        EXPECT_EQ(back->faults[i].until, plan.faults[i].until);
        EXPECT_EQ(back->faults[i].target, plan.faults[i].target);
    }
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "fault kind=warp-core-breach prob=0.1\n", // unknown kind
        "fault prob=0.1\n",                       // no kind
        "fault kind=eci-msg-drop prob=banana\n",  // bad number
        "seed not-a-number\n",
        "flault kind=eci-msg-drop\n", // unknown directive
    };
    for (const char *text : bad) {
        std::istringstream in(text);
        std::string err;
        EXPECT_FALSE(FaultPlan::parse(in, err).has_value()) << text;
        EXPECT_FALSE(err.empty()) << text;
        EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    }
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic)
{
    const FaultPlan a = FaultPlan::random(1234);
    const FaultPlan b = FaultPlan::random(1234);
    EXPECT_EQ(a.toString(), b.toString());
    EXPECT_GE(a.faults.size(), 2u);
    EXPECT_LE(a.faults.size(), 5u);
    // Different seeds diverge (over a few seeds at least one must).
    bool diverged = false;
    for (std::uint64_t s = 1; s < 6 && !diverged; ++s)
        diverged = FaultPlan::random(s).toString() != a.toString();
    EXPECT_TRUE(diverged);
}

TEST(FaultPlan, KindNamesRoundTrip)
{
    for (std::size_t k = 0; k < faultKindCount; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const auto back = faultKindFromString(toString(kind));
        ASSERT_TRUE(back.has_value()) << toString(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(faultKindFromString("no-such-fault").has_value());
}

// ----------------------------------------------------------- ECI link

eci::EciMsg
lineMsg(Addr addr, mem::NodeId src = mem::NodeId::Fpga)
{
    eci::EciMsg m;
    m.op = eci::Opcode::PEMD;
    m.src = src;
    m.dst = src == mem::NodeId::Fpga ? mem::NodeId::Cpu
                                     : mem::NodeId::Fpga;
    m.addr = addr;
    return m;
}

TEST(FaultEciLink, LaneFailureDeratesBandwidthProportionally)
{
    EventQueue eq;
    eci::EciLink::Config cfg = platform::params::eciLinkConfig();
    eci::EciLink link("l", eq, cfg);
    const double full = link.effectiveBandwidth();
    const std::uint32_t lanes = link.lanes();

    link.failLanes(eq.now(), 4);
    eq.run();
    EXPECT_EQ(link.lanes(), lanes - 4);
    EXPECT_NEAR(link.effectiveBandwidth(),
                full * (lanes - 4) / lanes, 1.0);
    EXPECT_TRUE(link.retraining());
    EXPECT_EQ(link.laneFailures(), 1u);
    EXPECT_EQ(link.retrains(), 1u);

    // Failing more lanes than remain still leaves one lane up.
    link.failLanes(eq.now(), 100);
    eq.run();
    EXPECT_EQ(link.lanes(), 1u);
    EXPECT_NEAR(link.effectiveBandwidth(), full / lanes, 1.0);

    link.restoreLanes(eq.now(), lanes);
    eq.run();
    EXPECT_EQ(link.lanes(), lanes);
    EXPECT_NEAR(link.effectiveBandwidth(), full, 1.0);
    EXPECT_EQ(link.retrains(), 3u);
}

TEST(FaultEciLink, RetrainStallsTraffic)
{
    EventQueue eq;
    eci::EciLink::Config cfg = platform::params::eciLinkConfig();
    eci::EciLink link("l", eq, cfg);
    link.setReceiver(mem::NodeId::Cpu, [](const eci::EciMsg &) {});
    const Tick clean = link.send(lineMsg(0));
    eq.run();

    link.failLanes(eq.now(), 2);
    eq.run();
    const Tick retrain_ends = eq.now() + units::ns(cfg.retrain_ns);
    const Tick delayed = link.send(lineMsg(128));
    // The serializer cannot start before the retrain completes, so
    // delivery lands strictly after it (and after a clean delivery).
    EXPECT_GT(delayed, retrain_ends);
    EXPECT_GT(delayed - eq.now(), clean);
    eq.run();
    EXPECT_FALSE(link.retraining());
}

TEST(FaultEciLink, FlapLosesInFlightAndReconcilesCredits)
{
    EventQueue eq;
    eci::EciLink link("l", eq, platform::params::eciLinkConfig());
    std::uint32_t delivered = 0;
    link.setReceiver(mem::NodeId::Cpu,
                     [&](const eci::EciMsg &) { ++delivered; });
    link.setReceiver(mem::NodeId::Fpga,
                     [&](const eci::EciMsg &) { ++delivered; });
    link.send(lineMsg(0));
    link.send(lineMsg(128));
    link.send(lineMsg(0, mem::NodeId::Cpu));

    // The receivers drop what was in flight at the flap as it arrives.
    link.flap(eq.now() + 1, units::us(5.0));
    eq.run();
    EXPECT_EQ(link.linkFlaps(), 1u);
    EXPECT_EQ(link.creditsReconciled(), 3u);
    EXPECT_EQ(delivered, 0u); // everything in flight was lost

    // After the flap + retrain the link carries traffic again.
    link.send(lineMsg(256));
    eq.run();
    EXPECT_EQ(delivered, 1u);
}

TEST(FaultEciLink, FilterDropsAndCorruptsAreCountedNotDelivered)
{
    EventQueue eq;
    eci::EciLink link("l", eq, platform::params::eciLinkConfig());
    std::uint32_t delivered = 0;
    std::uint32_t tapped = 0;
    link.setReceiver(mem::NodeId::Cpu,
                     [&](const eci::EciMsg &) { ++delivered; });
    link.addTap([&](Tick, const eci::EciMsg &) { ++tapped; });
    std::uint32_t n = 0;
    link.setFaultFilter([&](Tick, const eci::EciMsg &) {
        ++n;
        if (n == 1)
            return eci::EciLink::FaultAction::Drop;
        if (n == 2)
            return eci::EciLink::FaultAction::Corrupt;
        return eci::EciLink::FaultAction::Deliver;
    });
    link.send(lineMsg(0));
    link.send(lineMsg(128));
    link.send(lineMsg(256));
    eq.run();
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(tapped, 1u); // a real capture never sees lost messages
    EXPECT_EQ(link.messagesDropped(), 1u);
    EXPECT_EQ(link.messagesCorrupted(), 1u);
}

// ------------------------------------------------- ECI agent recovery

TEST(FaultEciRecovery, RemoteAgentRetriesDroppedRequest)
{
    platform::EnzianMachine::Config mc;
    mc.cpu_dram_bytes = 16ull << 20;
    mc.fpga_dram_bytes = 16ull << 20;
    mc.name = "retry";
    platform::EnzianMachine m(mc);
    m.cpuRemote().enableRecovery(30.0, 8);

    // Drop the first request message crossing the fabric.
    bool dropped = false;
    for (std::uint32_t i = 0; i < m.fabric().linkCount(); ++i) {
        m.fabric().link(i).setFaultFilter(
            [&dropped](Tick, const eci::EciMsg &msg) {
                if (!dropped && msg.op == eci::Opcode::RLDX) {
                    dropped = true;
                    return eci::EciLink::FaultAction::Drop;
                }
                return eci::EciLink::FaultAction::Deliver;
            });
    }

    std::uint8_t buf[cache::lineSize] = {0x5a};
    bool done = false;
    m.cpuRemote().writeLine(mem::AddressMap::fpgaDramBase, buf,
                            [&done](Tick) { done = true; });
    m.eventq().run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(dropped);
    EXPECT_GE(m.cpuRemote().retriesSent(), 1u);
}

TEST(FaultEciRecovery, HomeReplaysResponseOnDuplicateRequest)
{
    platform::EnzianMachine::Config mc;
    mc.cpu_dram_bytes = 16ull << 20;
    mc.fpga_dram_bytes = 16ull << 20;
    mc.name = "replay";
    platform::EnzianMachine m(mc);
    m.cpuRemote().enableRecovery(30.0, 8);
    m.fpgaHome().enableRecovery(30.0, 8);

    // Drop the first *response*: the home serviced the request, so the
    // retry must be deduplicated and answered from the replay cache.
    bool dropped = false;
    for (std::uint32_t i = 0; i < m.fabric().linkCount(); ++i) {
        m.fabric().link(i).setFaultFilter(
            [&dropped](Tick, const eci::EciMsg &msg) {
                if (!dropped && msg.op == eci::Opcode::PEMD) {
                    dropped = true;
                    return eci::EciLink::FaultAction::Drop;
                }
                return eci::EciLink::FaultAction::Deliver;
            });
    }

    std::uint8_t buf[cache::lineSize] = {};
    bool done = false;
    m.cpuRemote().readLine(mem::AddressMap::fpgaDramBase, buf,
                           [&done](Tick) { done = true; });
    m.eventq().run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(dropped);
    EXPECT_GE(m.cpuRemote().retriesSent(), 1u);
    EXPECT_GE(m.fpgaHome().responsesReplayed(), 1u);
}

// ----------------------------------------------------------- DRAM ECC

TEST(FaultDram, CorrectableEccScrubsAndDelays)
{
    EventQueue eq;
    mem::DramChannel::Config cfg = platform::params::cpuDramConfig();
    mem::DramChannel clean("ch0", eq, cfg);
    mem::DramChannel faulty("ch1", eq, cfg);
    Rng rng(9);
    mem::DramChannel::EccConfig ecc;
    ecc.correctable_prob = 1.0; // every access takes a hit
    faulty.armEcc(&rng, ecc);

    const Tick base = clean.access(0, 128);
    const Tick hit = faulty.access(0, 128);
    EXPECT_EQ(hit, base + ecc.scrub_penalty);
    EXPECT_EQ(faulty.eccCorrectable(), 1u);
    EXPECT_EQ(faulty.eccScrubs(), 1u);
    EXPECT_EQ(faulty.eccUncorrectable(), 0u);
}

TEST(FaultDram, UncorrectableEccRetriesTheBurst)
{
    EventQueue eq;
    mem::DramChannel::Config cfg = platform::params::cpuDramConfig();
    mem::DramChannel clean("ch0", eq, cfg);
    mem::DramChannel faulty("ch1", eq, cfg);
    Rng rng(9);
    mem::DramChannel::EccConfig ecc;
    ecc.uncorrectable_prob = 1.0;
    faulty.armEcc(&rng, ecc);

    const Tick base = clean.access(0, 128);
    const Tick hit = faulty.access(0, 128);
    // The burst is replayed: penalty + a second full stream + access.
    EXPECT_GT(hit, base + ecc.retry_penalty);
    EXPECT_EQ(faulty.eccUncorrectable(), 1u);
    EXPECT_EQ(faulty.eccRetries(), 1u);
    EXPECT_EQ(faulty.eccCorrectable(), 0u);
}

TEST(FaultDram, DisarmedEccIsFree)
{
    EventQueue eq;
    mem::DramChannel::Config cfg = platform::params::cpuDramConfig();
    mem::DramChannel clean("ch0", eq, cfg);
    mem::DramChannel armed("ch1", eq, cfg);
    Rng rng(9);
    armed.armEcc(&rng, mem::DramChannel::EccConfig{});
    armed.armEcc(nullptr, mem::DramChannel::EccConfig{});
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(armed.access(0, 128), clean.access(0, 128));
    EXPECT_EQ(armed.eccCorrectable(), 0u);
    EXPECT_EQ(armed.eccUncorrectable(), 0u);
}

// ----------------------------------------------------------- TCP loss

TEST(FaultTcp, LossAndReorderRecoverEveryByte)
{
    EventQueue eq;
    net::Switch sw("sw", eq, 2, net::Switch::Config{});
    net::TcpStack a("tcp0", eq, sw, net::hostTcpConfig(0));
    net::TcpStack b("tcp1", eq, sw, net::hostTcpConfig(1));
    a.enableRecovery(150.0);
    b.enableRecovery(150.0);
    Rng rng(11);
    a.setLossFaults(&rng, 0.15, 0.1, 20.0);
    b.setLossFaults(&rng, 0.15, 0.1, 20.0);

    const std::uint32_t flow = a.connect(b);
    const std::uint64_t bytes = 256 * 1024;
    bool done = false;
    a.send(flow, bytes, [&done](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(flow), bytes);
    // With 15% segment loss over a 256 KiB transfer, at least one
    // retransmission must have happened (deterministic under the seed).
    EXPECT_GE(a.retransmits(), 1u);
}

// Recovery covers a stack's own sends and leaves the wire format
// alone, so only the sender needs it.
TEST(FaultTcp, SenderOnlyRecoveryRecoversDroppedSegments)
{
    EventQueue eq;
    net::Switch sw("sw", eq, 2, net::Switch::Config{});
    net::TcpStack a("tcp0", eq, sw, net::fpgaTcpConfig(0, 250e6));
    net::TcpStack b("tcp1", eq, sw, net::fpgaTcpConfig(1, 250e6));
    a.enableRecovery(150.0);
    Rng rng(11);
    a.setLossFaults(&rng, 0.15, 0.0);

    const std::uint32_t flow = a.connect(b);
    const std::uint64_t bytes = 256 * 1024;
    bool done = false;
    a.send(flow, bytes, [&done](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(flow), bytes);
    EXPECT_GE(a.segmentsDropped(), 1u);
    EXPECT_GE(a.retransmits(), 1u);
}

// Reordering alone loses nothing, so a reorder-only plan leaves TCP
// recovery off: the injector's run is the run the same faults give
// by hand, with no RTO timers armed.
TEST(FaultInjector, ReorderOnlyPlanLeavesRecoveryOff)
{
    std::istringstream in("seed 4\n"
                          "fault kind=net-reorder prob=1.0 param=20 "
                          "at_us=0\n");
    std::string err;
    const auto plan = FaultPlan::parse(in, err);
    ASSERT_TRUE(plan.has_value()) << err;

    // Host segments are 64 KiB: 16 of them, sent once the window is
    // open.
    const std::uint64_t bytes = 1024 * 1024;
    auto run = [&](bool via_injector) {
        EventQueue eq;
        net::Switch sw("sw", eq, 2, net::Switch::Config{});
        net::TcpStack a("tcp0", eq, sw, net::hostTcpConfig(0));
        net::TcpStack b("tcp1", eq, sw, net::hostTcpConfig(1));
        std::unique_ptr<FaultInjector> inj;
        // prob 1.0 reorders every segment whatever the stream draws.
        Rng rng(4);
        if (via_injector) {
            inj = std::make_unique<FaultInjector>("fault", eq, *plan);
            inj->attachNet(a, b);
            inj->arm();
        } else {
            // The injector's window events, one per stack, by hand.
            for (net::TcpStack *s : {&a, &b}) {
                eq.schedule(0, [s, &rng]() {
                    s->setLossFaults(&rng, 0.0, 1.0, 20.0);
                });
            }
        }
        const std::uint32_t flow = a.connect(b);
        bool done = false;
        eq.schedule(units::us(1.0), [&]() {
            a.send(flow, bytes, [&done](Tick) { done = true; });
        });
        eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(b.bytesReceived(flow), bytes);
        EXPECT_EQ(a.segmentsReordered(), 16u);
        return eq.eventsScheduled();
    };
    EXPECT_EQ(run(true), run(false));
}

// --------------------------------------------------------- RDMA drops

TEST(FaultRdma, TimeoutRetryRecoversDroppedRequestsAndResponses)
{
    EventQueue eq;
    net::Switch::Config scfg;
    scfg.port = platform::params::eth100Config();
    scfg.port.mtu = 4096;
    net::Switch sw("sw", eq, 2, scfg);
    mem::MemoryController mc("mem", eq, 16 << 20, 2,
                             platform::params::fpgaDramConfig());
    net::DirectDramPath path(mc);
    net::RdmaTarget target("tgt", eq, sw, path,
                           net::RdmaTarget::Config{});
    net::RdmaInitiator init("ini", eq, sw, 1, 0);
    init.enableRecovery(50.0, 12);
    Rng reqRng(3);
    Rng rspRng(4);
    init.setFaults(&reqRng, 0.3);
    target.setFaults(&rspRng, 0.3);

    std::vector<std::uint8_t> src(4096), back(4096);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::uint32_t jobs_done = 0;
    for (int j = 0; j < 8; ++j) {
        init.write(0x1000 + j * 8192, src.data(), src.size(),
                   [&jobs_done](Tick) { ++jobs_done; });
    }
    eq.run();
    ASSERT_EQ(jobs_done, 8u);

    bool read_done = false;
    init.read(0x1000, back.data(), back.size(),
              [&read_done](Tick) { read_done = true; });
    eq.run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(back, src);
    // 30% drop each way over 9 ops: recovery must have fired.
    EXPECT_GE(init.retriesSent() + init.requestsDropped() +
                  target.responsesDropped(),
              1u);
}

// ---------------------------------------------------- BMC rail glitch

TEST(FaultBmc, RailGlitchPowerCyclesAndRecoversTheDomain)
{
    EventQueue eq;
    bmc::Bmc b("bmc", eq);
    b.commonPowerUp();
    eq.run();
    b.cpuPowerUp();
    b.fpgaPowerUp();
    eq.run();
    ASSERT_TRUE(b.domainUp(bmc::Domain::Cpu));
    ASSERT_TRUE(b.domainUp(bmc::Domain::Fpga));

    b.injectRailGlitch("VDD_09");
    eq.run();
    EXPECT_TRUE(b.domainUp(bmc::Domain::Cpu));
    EXPECT_TRUE(b.domainUp(bmc::Domain::Fpga)); // other domain untouched
    EXPECT_EQ(b.railGlitches(), 1u);
    EXPECT_EQ(b.railRecoveries(), 1u);

    b.injectRailGlitch("VCCINT");
    eq.run();
    EXPECT_TRUE(b.domainUp(bmc::Domain::Fpga));
    EXPECT_EQ(b.railGlitches(), 2u);
    EXPECT_EQ(b.railRecoveries(), 2u);
}

// ------------------------------------------------------ the injector

TEST(FaultInjector, CountsInjectionsPerKindAndReports)
{
    std::istringstream in(
        "seed 5\n"
        "fault kind=eci-lane-fail param=2 target=0 at_us=5 "
        "until_us=40\n"
        "fault kind=dram-ecc-correctable prob=1.0 target=1 at_us=1 "
        "until_us=200\n");
    std::string err;
    const auto plan = FaultPlan::parse(in, err);
    ASSERT_TRUE(plan.has_value()) << err;

    ChaosConfig cfg;
    cfg.seed = 5;
    cfg.ops = 60;
    cfg.lines = 8;
    cfg.with_net = false;
    cfg.with_rdma = false;
    const ChaosResult r = runChaos(*plan, cfg);
    EXPECT_TRUE(r.ok) << (r.violations.empty()
                              ? ""
                              : r.violations.front());
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_NE(r.report.find("eci-lane-fail"), std::string::npos);
    EXPECT_NE(r.report.find("dram-ecc-correctable"),
              std::string::npos);
}

} // namespace
} // namespace enzian::fault
