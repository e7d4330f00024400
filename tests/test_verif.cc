/**
 * @file
 * Tests for the verification subsystem: MOESI table decisions, the
 * exhaustive model checker (clean protocol + every seeded mutation
 * detected), and the runtime invariant monitor (live and replay).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "eci/protocol_table.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"
#include "trace/eci_pcap.hh"
#include "verif/explorer.hh"
#include "verif/invariant_monitor.hh"
#include "verif/invariants.hh"

namespace enzian {
namespace {

using cache::MoesiState;
using eci::Grant;
using eci::Opcode;
using mem::AddressMap;
using platform::EnzianMachine;
namespace proto = eci::proto;

// ---------------------------------------------------------------------
// MOESI table unit checks: the same decisions drive both the timed
// engines and the model checker.
// ---------------------------------------------------------------------

const proto::ProtocolTable &moesi = proto::moesiProtocol();

TEST(ProtocolKernel, FirstReadGrantsExclusive)
{
    const auto s = moesi.homeRead(MoesiState::Invalid,
                                  MoesiState::Invalid, false, true);
    EXPECT_EQ(s.grant, Grant::Exclusive);
    EXPECT_EQ(s.dirAfter, MoesiState::Exclusive);
}

TEST(ProtocolKernel, ReadBesideHomeCopyGrantsShared)
{
    const auto s = moesi.homeRead(MoesiState::Shared,
                                  MoesiState::Invalid, false, true);
    EXPECT_EQ(s.grant, Grant::Shared);
    EXPECT_EQ(s.dirAfter, MoesiState::Shared);
    EXPECT_EQ(s.localAction, proto::LocalAction::Keep);
}

TEST(ProtocolKernel, ExclusiveReadFlushesDirtyHomeCopy)
{
    const auto s = moesi.homeRead(MoesiState::Modified,
                                  MoesiState::Invalid, true, true);
    EXPECT_EQ(s.grant, Grant::Exclusive);
    EXPECT_EQ(s.localAction, proto::LocalAction::Invalidate);
    EXPECT_TRUE(s.flushLocalDirty);
}

TEST(ProtocolKernel, UpgradeLegalFromSharedAndRacedInvalid)
{
    EXPECT_TRUE(
        moesi.homeUpgrade(MoesiState::Invalid, MoesiState::Shared)
            .legal);
    // A racing SINV may have cleared the directory before the RUPG
    // is processed; the full-line payload still allows the grant.
    EXPECT_TRUE(
        moesi.homeUpgrade(MoesiState::Invalid, MoesiState::Invalid)
            .legal);
    EXPECT_FALSE(
        moesi.homeUpgrade(MoesiState::Invalid, MoesiState::Modified)
            .legal);
}

TEST(ProtocolKernel, StaleWritebackIsLegalButNotCommitted)
{
    const auto live = moesi.homeWriteback(MoesiState::Modified);
    EXPECT_TRUE(live.legal);
    EXPECT_TRUE(live.commitData);
    const auto stale = moesi.homeWriteback(MoesiState::Invalid);
    EXPECT_TRUE(stale.legal);
    EXPECT_FALSE(stale.commitData);
}

TEST(ProtocolKernel, DirtyEvictionWritesBack)
{
    EXPECT_EQ(moesi.remoteEvict(MoesiState::Modified), Opcode::RWBD);
    EXPECT_EQ(moesi.remoteEvict(MoesiState::Owned), Opcode::RWBD);
    // Clean copies (E included) leave silently with a dataless REVC.
    EXPECT_EQ(moesi.remoteEvict(MoesiState::Exclusive), Opcode::REVC);
    EXPECT_EQ(moesi.remoteEvict(MoesiState::Shared), Opcode::REVC);
}

TEST(ProtocolKernel, SnoopOfDirtyLineCarriesData)
{
    const auto s =
        moesi.remoteSnoop(MoesiState::Modified, Opcode::SINV);
    EXPECT_EQ(s.response, Opcode::SACKI);
    EXPECT_EQ(s.stateAfter, MoesiState::Invalid);
    EXPECT_TRUE(s.hasData);
    // SFWD that misses (eviction in flight) answers SACKI, clean.
    const auto miss =
        moesi.remoteSnoop(MoesiState::Invalid, Opcode::SFWD);
    EXPECT_EQ(miss.response, Opcode::SACKI);
    EXPECT_FALSE(miss.hasData);
}

// ---------------------------------------------------------------------
// Invariant predicates.
// ---------------------------------------------------------------------

TEST(Invariants, SwmrRejectsTwoWriters)
{
    EXPECT_FALSE(
        verif::checkSwmr(MoesiState::Shared, MoesiState::Shared));
    EXPECT_FALSE(
        verif::checkSwmr(MoesiState::Owned, MoesiState::Shared));
    EXPECT_TRUE(
        verif::checkSwmr(MoesiState::Modified, MoesiState::Shared));
    EXPECT_TRUE(
        verif::checkSwmr(MoesiState::Exclusive, MoesiState::Exclusive));
}

TEST(Invariants, DirCoverageAllowsSilentUpgrade)
{
    EXPECT_FALSE(verif::checkDirCoverage(MoesiState::Modified,
                                         MoesiState::Exclusive));
    EXPECT_TRUE(verif::checkDirCoverage(MoesiState::Modified,
                                        MoesiState::Shared));
    EXPECT_TRUE(verif::checkDirCoverage(MoesiState::Modified,
                                        MoesiState::Invalid));
}

// ---------------------------------------------------------------------
// Exhaustive exploration of the shipped protocol.
// ---------------------------------------------------------------------

bool
anyMentions(const std::vector<verif::Violation> &vs, const char *what)
{
    for (const verif::Violation &v : vs) {
        if (v.what.find(what) != std::string::npos)
            return true;
    }
    return false;
}

TEST(ModelChecker, CachedOrderedProtocolIsClean)
{
    verif::Options opt;
    const verif::Report rep = verif::explore(opt);
    EXPECT_TRUE(rep.clean()) << rep.toString();
    // The single-line 2-agent space is small but non-trivial.
    EXPECT_GT(rep.states, 50u);
    EXPECT_LT(rep.states, 100000u);
    EXPECT_GT(rep.transitions, rep.states);
    // All intended stable sharing patterns are reachable.
    for (const char *triple :
         {"I/S/S", "I/E/E", "I/E/M", "I/M/M", "S/S/S", "O/S/S",
          "M/I/I", "I/I/I"}) {
        EXPECT_NE(std::find(rep.stableReached.begin(),
                            rep.stableReached.end(), triple),
                  rep.stableReached.end())
            << "stable state " << triple << " unreachable";
    }
}

TEST(ModelChecker, UncachedProtocolIsClean)
{
    verif::Options opt;
    opt.uncachedRemote = true;
    const verif::Report rep = verif::explore(opt);
    EXPECT_TRUE(rep.clean()) << rep.toString();
    // Uncached remotes never hold the line.
    for (const std::string &t : rep.stableReached)
        EXPECT_EQ(t.substr(t.size() - 3), "I/I") << t;
}

TEST(ModelChecker, UnorderedDeliveryExposesUpgradeSnoopRace)
{
    // The protocol relies on the AddressHash link policy's per-line
    // FIFO delivery. Under a reordering policy a snoop can overtake
    // an upgrade grant and the directory loses the writer. The model
    // documents this dependency; see DESIGN.md (Verification).
    verif::Options opt;
    opt.orderedDelivery = false;
    const verif::Report rep = verif::explore(opt);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(anyMentions(rep.violations,
                            "directory lost track"));
}

TEST(ModelChecker, EverySeededMutationIsDetected)
{
    for (const char *protocol : {"moesi", "mesi", "dragon"}) {
        for (verif::Mutation m : verif::allMutations) {
            if (!verif::mutationApplies(m, protocol))
                continue;
            verif::Options opt;
            opt.protocol = protocol;
            opt.mutation = m;
            const verif::Report rep = verif::explore(opt);
            EXPECT_FALSE(rep.clean())
                << "mutation " << verif::toString(m)
                << " went undetected on " << protocol;
        }
    }
}

TEST(ModelChecker, EveryMutationAppliesSomewhere)
{
    for (verif::Mutation m : verif::allMutations) {
        bool applies = false;
        for (const char *p : {"moesi", "mesi", "dragon"})
            applies = applies || verif::mutationApplies(m, p);
        EXPECT_TRUE(applies) << verif::toString(m);
    }
}

TEST(ModelChecker, MutationsAreCaughtByTheRightInvariant)
{
    auto run = [](verif::Mutation m) {
        verif::Options opt;
        opt.mutation = m;
        return verif::explore(opt);
    };
    // Granting E while the home keeps its copy breaks SWMR.
    EXPECT_TRUE(anyMentions(
        run(verif::Mutation::GrantExclusiveToSharer).violations,
        "SWMR"));
    // A dirty eviction without data is a silent drop.
    EXPECT_TRUE(anyMentions(
        run(verif::Mutation::SkipWritebackOnEvict).violations,
        "dropped without a writeback"));
    // Keeping the home copy across an upgrade breaks SWMR.
    EXPECT_TRUE(anyMentions(
        run(verif::Mutation::UpgradeKeepsHomeCopy).violations,
        "SWMR"));
    // Ignoring a SINV leaves a writer the directory cannot see.
    EXPECT_TRUE(anyMentions(
        run(verif::Mutation::DropSnoopInvalidation).violations,
        "directory lost track"));
    // Swallowing RWBD wedges the writeback: quiescence unreachable.
    // (Dirty copies can still drain via the snoop path, so this is a
    // pure liveness bug, not a dirty trap.)
    const verif::Report wb = run(verif::Mutation::DropWritebackAck);
    EXPECT_FALSE(wb.livenessViolations.empty());
}

// ---------------------------------------------------------------------
// Reductions, multi-line product states, and parallel search.
// ---------------------------------------------------------------------

/** All violation messages of a report, order-normalized. */
std::vector<std::string>
sortedWhats(const verif::Report &rep)
{
    std::vector<std::string> whats;
    for (const auto *vs :
         {&rep.violations, &rep.deadlocks, &rep.livenessViolations,
          &rep.dirtyTraps}) {
        for (const verif::Violation &v : *vs)
            whats.push_back(v.what);
    }
    std::sort(whats.begin(), whats.end());
    return whats;
}

TEST(ModelChecker, AllProtocolsCleanAtTwoLines)
{
    for (const char *protocol : {"moesi", "mesi", "dragon"}) {
        verif::Options opt;
        opt.protocol = protocol;
        opt.lines = 2;
        opt.symmetry = true;
        opt.por = true;
        const verif::Report rep = verif::explore(opt);
        EXPECT_TRUE(rep.clean())
            << protocol << ":\n" << rep.toString();
        EXPECT_GT(rep.states, 1000u) << protocol;
    }
}

TEST(ModelChecker, ReductionsPreserveViolationSets)
{
    // Soundness: symmetry + POR must report exactly the same set of
    // violation messages as the unreduced search — on the clean
    // protocol AND under every applicable seeded bug.
    for (const char *protocol : {"moesi", "mesi", "dragon"}) {
        std::vector<verif::Mutation> muts{verif::Mutation::None};
        for (verif::Mutation m : verif::allMutations) {
            if (verif::mutationApplies(m, protocol))
                muts.push_back(m);
        }
        for (verif::Mutation m : muts) {
            verif::Options opt;
            opt.protocol = protocol;
            opt.mutation = m;
            opt.por = true; // single line: symmetry is the identity
            const verif::Report red = verif::explore(opt);
            opt.por = false;
            const verif::Report full = verif::explore(opt);
            EXPECT_EQ(sortedWhats(red), sortedWhats(full))
                << protocol << " +" << verif::toString(m);
            EXPECT_LE(red.states, full.states)
                << protocol << " +" << verif::toString(m);
        }
    }
}

TEST(ModelChecker, ReductionsShrinkTheTwoLineSpace)
{
    for (verif::Mutation m :
         {verif::Mutation::None, verif::Mutation::DropWritebackAck}) {
        verif::Options opt;
        opt.lines = 2;
        opt.mutation = m;
        opt.symmetry = true;
        opt.por = true;
        const verif::Report red = verif::explore(opt);
        opt.symmetry = false;
        opt.por = false;
        const verif::Report full = verif::explore(opt);
        // The drop must be measurable (we see ~50%), and sound.
        EXPECT_LT(red.states, (full.states * 3) / 4)
            << verif::toString(m);
        EXPECT_EQ(sortedWhats(red), sortedWhats(full))
            << verif::toString(m);
    }
}

TEST(ModelChecker, BfsWitnessIsShortest)
{
    // Level-order search ⇒ the first counterexample reported is of
    // minimal length. This mutation's bug is reachable in 3 steps
    // (read-miss, deliver RLDD, deliver the bogus E grant).
    verif::Options opt;
    opt.mutation = verif::Mutation::GrantExclusiveToSharer;
    const verif::Report rep = verif::explore(opt);
    ASSERT_FALSE(rep.violations.empty());
    EXPECT_EQ(rep.violations.front().trace.size(), 3u);
    for (const verif::Violation &v : rep.violations)
        EXPECT_GE(v.trace.size(), rep.violations.front().trace.size());
}

TEST(ModelChecker, ParallelSearchIsDeterministic)
{
    for (verif::Mutation m :
         {verif::Mutation::None, verif::Mutation::DropWritebackAck}) {
        verif::Options opt;
        opt.lines = 2;
        opt.mutation = m;
        opt.symmetry = true;
        opt.por = true;
        opt.threads = 1;
        const verif::Report one = verif::explore(opt);
        opt.threads = 4;
        const verif::Report four = verif::explore(opt);
        // Byte-identical reports, not just equal counts.
        EXPECT_EQ(one.toString(), four.toString())
            << verif::toString(m);
        EXPECT_EQ(one.states, four.states);
        EXPECT_EQ(one.transitions, four.transitions);
    }
}

// ---------------------------------------------------------------------
// Runtime monitor over the full machine.
// ---------------------------------------------------------------------

class MonitorTest : public ::testing::Test
{
  protected:
    MonitorTest() { rebuild("moesi"); }

    /** Build a fresh machine running @p protocol. */
    void
    rebuild(const std::string &protocol)
    {
        EnzianMachine::Config cfg = platform::enzianDefaultConfig();
        cfg.cpu_dram_bytes = 64ull << 20;
        cfg.fpga_dram_bytes = 64ull << 20;
        cfg.protocol = protocol;
        m = std::make_unique<EnzianMachine>(cfg);
    }

    void
    runUntilDone(const bool &flag)
    {
        for (int i = 0; i < 100000 && !flag; ++i) {
            if (!m->eventq().runOne())
                break;
        }
        ASSERT_TRUE(flag) << "operation never completed";
    }

    verif::InvariantMonitor::Hooks
    hooks()
    {
        verif::InvariantMonitor::Hooks h;
        h.cpuCache = &m->l2();
        h.cpuHome = &m->cpuHome();
        h.fpgaHome = &m->fpgaHome();
        h.map = &m->map();
        return h;
    }

    /** Exercise fills, upgrades, snoops, and writebacks on one line. */
    void
    workload()
    {
        const Addr line = AddressMap::fpgaDramBase + 0x4000;
        std::uint8_t buf[cache::lineSize] = {};
        bool done = false;
        m->cpuRemote().readLine(line, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        std::memset(buf, 0x5a, sizeof(buf));
        done = false;
        m->cpuRemote().writeLine(line, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        done = false; // SFWD: home reads back the dirty remote copy
        m->fpgaHome().localRead(line, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        done = false; // RUPG from Shared
        m->cpuRemote().writeLine(line, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        done = false; // SINV: home overwrites the line
        std::memset(buf, 0xa5, sizeof(buf));
        m->fpgaHome().localWrite(line, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        const Addr line2 = AddressMap::fpgaDramBase + 0x4080;
        done = false; // second line stays clean: flush emits REVC
        m->cpuRemote().readLine(line2, buf, [&](Tick) { done = true; });
        runUntilDone(done);

        done = false; // drain everything left in the L2
        m->cpuRemote().flushAll([&](Tick) { done = true; });
        runUntilDone(done);

        // flushAll completes when the dirty data is durable; clean
        // eviction notices may still be in flight. Drain them.
        while (m->eventq().runOne()) {
        }
    }

    std::unique_ptr<EnzianMachine> m;
};

TEST_F(MonitorTest, LiveMonitorCleanOnProtocolWorkload)
{
    verif::InvariantMonitor mon(hooks());
    mon.attach(m->fabric());
    workload();
    mon.checkAllLines();
    mon.finalize();
    EXPECT_GT(mon.observed(), 10u);
    EXPECT_TRUE(mon.clean())
        << "first violation: " << mon.violations().front();
}

TEST_F(MonitorTest, EveryProtocolRunsCleanOnTheLiveMachine)
{
    // The same timed engines execute whichever table the machine is
    // configured with; the monitor's invariants are table-agnostic.
    for (const char *protocol : {"moesi", "mesi", "dragon"}) {
        rebuild(protocol);
        verif::InvariantMonitor mon(hooks());
        mon.attach(m->fabric());
        workload();
        mon.checkAllLines();
        mon.finalize();
        EXPECT_GT(mon.observed(), 10u) << protocol;
        EXPECT_TRUE(mon.clean())
            << protocol
            << " first violation: " << mon.violations().front();
    }
}

TEST_F(MonitorTest, MonitorAndTraceChainOnOneFabric)
{
    // Regression: the fabric used to have a single tap slot, so
    // attaching a capture disconnected the invariant monitor. Both
    // must observe the complete message stream.
    verif::InvariantMonitor mon(hooks());
    trace::EciTrace tr;
    mon.attach(m->fabric());
    tr.attach(m->fabric());
    workload();
    mon.checkAllLines();
    mon.finalize();
    EXPECT_TRUE(mon.clean())
        << "first violation: " << mon.violations().front();
    EXPECT_GT(tr.size(), 10u);
    EXPECT_EQ(mon.observed(), tr.size());
}

TEST_F(MonitorTest, CapturedTraceReplaysClean)
{
    trace::EciTrace tr;
    tr.attach(m->fabric());
    workload();
    ASSERT_GT(tr.size(), 10u);

    verif::InvariantMonitor replayer; // no hooks: pure trace judge
    replayer.replay(tr);
    replayer.finalize();
    EXPECT_TRUE(replayer.clean())
        << "first violation: " << replayer.violations().front();
    EXPECT_EQ(replayer.observed(), tr.size());
}

TEST_F(MonitorTest, ReplayFlagsCorruptedTrace)
{
    trace::EciTrace tr;
    // A response out of thin air: no request ever carried this tid.
    eci::EciMsg orphan;
    orphan.op = Opcode::PACK;
    orphan.src = mem::NodeId::Fpga;
    orphan.dst = mem::NodeId::Cpu;
    orphan.tid = 12345;
    orphan.addr = AddressMap::fpgaDramBase;
    tr.record(units::ns(1), orphan);

    verif::InvariantMonitor mon;
    mon.replay(tr);
    EXPECT_FALSE(mon.clean());
}

} // namespace
} // namespace enzian
