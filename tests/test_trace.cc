/**
 * @file
 * Tests for trace capture, the decoder, and the protocol checker.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"
#include "trace/checker.hh"
#include "trace/decoder.hh"
#include "trace/eci_pcap.hh"

namespace enzian::trace {
namespace {

eci::EciMsg
msg(eci::Opcode op, std::uint32_t tid, Addr addr,
    mem::NodeId src = mem::NodeId::Cpu)
{
    eci::EciMsg m;
    m.op = op;
    m.src = src;
    m.dst = src == mem::NodeId::Cpu ? mem::NodeId::Fpga
                                    : mem::NodeId::Cpu;
    m.tid = tid;
    m.addr = addr;
    return m;
}

TEST(EciTrace, RoundTripThroughBytes)
{
    EciTrace t;
    t.record(100, msg(eci::Opcode::RLDD, 1, 0x1000));
    t.record(200, msg(eci::Opcode::PEMD, 1, 0x1000, mem::NodeId::Fpga));
    auto bytes = t.toBytes();

    EciTrace back;
    ASSERT_TRUE(back.fromBytes(bytes));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.records()[0].when, 100u);
    EXPECT_EQ(back.records()[0].msg.op, eci::Opcode::RLDD);
    EXPECT_EQ(back.records()[1].msg.op, eci::Opcode::PEMD);
}

TEST(EciTrace, RejectsCorruptBuffer)
{
    EciTrace t;
    t.record(1, msg(eci::Opcode::RLDD, 1, 0));
    auto bytes = t.toBytes();
    bytes[0] ^= 0xff; // magic
    EciTrace back;
    EXPECT_FALSE(back.fromBytes(bytes));
    auto bytes2 = t.toBytes();
    bytes2.pop_back(); // truncated record
    EXPECT_FALSE(back.fromBytes(bytes2));
}

TEST(EciTrace, SaveLoadFile)
{
    EciTrace t;
    t.record(42, msg(eci::Opcode::RWBD, 9, 0x4000));
    const std::string path = "/tmp/enzian_trace_test.ecit";
    t.save(path);
    EciTrace back;
    back.load(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.records()[0].when, 42u);
}

TEST(Decoder, LineContainsKeyFields)
{
    const auto line =
        decodeLine({1500000, msg(eci::Opcode::RLDX, 77, 0xabc00)});
    EXPECT_NE(line.find("RLDX"), std::string::npos);
    EXPECT_NE(line.find("cpu->fpga"), std::string::npos);
    EXPECT_NE(line.find("tid=77"), std::string::npos);
    EXPECT_NE(line.find("abc00"), std::string::npos);
}

TEST(Decoder, SummaryCountsByOpcode)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::RLDD, 1, 0));
    t.record(10, msg(eci::Opcode::RLDD, 2, 128));
    t.record(20, msg(eci::Opcode::PEMD, 1, 0, mem::NodeId::Fpga));
    const auto s = summarize(t);
    EXPECT_EQ(s.messages, 3u);
    EXPECT_EQ(s.byOpcode.at("RLDD"), 2u);
    EXPECT_EQ(s.byOpcode.at("PEMD"), 1u);
    EXPECT_EQ(s.lastTick, 20u);
    std::ostringstream os;
    dumpSummary(s, os);
    EXPECT_NE(os.str().find("RLDD: 2"), std::string::npos);
}

TEST(Checker, CleanTraceFromRealMachine)
{
    platform::EnzianMachine::Config cfg =
        platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    platform::EnzianMachine m(cfg);
    EciTrace trace;
    trace.attach(m.fabric());

    // Generate a mixed workload.
    std::uint32_t done = 0;
    for (int i = 0; i < 32; ++i) {
        const Addr fl = mem::AddressMap::fpgaDramBase +
                        static_cast<Addr>(i) * 128;
        std::vector<std::uint8_t> d(cache::lineSize,
                                    static_cast<std::uint8_t>(i));
        m.cpuRemote().writeLine(fl, d.data(), [&](Tick) { ++done; });
        m.fpgaRemote().readLineUncached(
            static_cast<Addr>(i) * 128, nullptr,
            [&](Tick) { ++done; });
    }
    bool flushed = false;
    m.eventq().run();
    m.cpuRemote().flushAll([&](Tick) { flushed = true; });
    m.eventq().run();
    ASSERT_TRUE(flushed);
    ASSERT_EQ(done, 64u);
    ASSERT_GT(trace.size(), 100u);

    ProtocolChecker checker;
    checker.check(trace);
    checker.finalize();
    EXPECT_TRUE(checker.clean())
        << "first violation: "
        << (checker.violations().empty() ? ""
                                         : checker.violations()[0]);
}

TEST(Checker, FlagsResponseWithoutRequest)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::PEMD, 5, 0, mem::NodeId::Fpga));
    ProtocolChecker c;
    c.check(t);
    EXPECT_FALSE(c.clean());
}

TEST(Checker, FlagsUnansweredRequestAtFinalize)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::RLDD, 5, 0));
    ProtocolChecker c;
    c.check(t);
    EXPECT_TRUE(c.clean());
    c.finalize();
    EXPECT_FALSE(c.clean());
}

TEST(Checker, FlagsIncompatibleStates)
{
    // Two exclusive grants for the same line without an intervening
    // invalidation.
    EciTrace t;
    t.record(0, msg(eci::Opcode::RLDD, 1, 0));
    auto grant = msg(eci::Opcode::PEMD, 1, 0, mem::NodeId::Fpga);
    grant.grant = eci::Grant::Shared;
    t.record(10, grant);
    // Home then claims it holds Modified (simulated by a bogus
    // writeback *from* the home side with no ownership).
    t.record(20, msg(eci::Opcode::RWBD, 9, 0, mem::NodeId::Fpga));
    ProtocolChecker c;
    c.check(t);
    EXPECT_FALSE(c.clean());
}

TEST(Checker, FlagsTidReuse)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::RLDD, 3, 0));
    t.record(5, msg(eci::Opcode::RLDD, 3, 256));
    ProtocolChecker c;
    c.check(t);
    EXPECT_FALSE(c.clean());
}

// Under recovery a requester's timer can fire while the answer is
// still queued behind a retrain; the answer completes the request, and
// the home's replay to the retransmission may then be lost.
TEST(Checker, RetryTolerantAcceptsRetransmissionAfterItsAnswer)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::RSTT, 23, 0xa80, mem::NodeId::Fpga));
    t.record(10, msg(eci::Opcode::PACK, 23, 0xa80));
    t.record(20, msg(eci::Opcode::RSTT, 23, 0xa80, mem::NodeId::Fpga));
    ProtocolChecker tolerant;
    tolerant.setRetryTolerant(true);
    tolerant.check(t);
    tolerant.finalize();
    EXPECT_TRUE(tolerant.clean());
    EXPECT_EQ(tolerant.retransmits(), 1u);
    // Without recovery nothing re-sends, so the trace is a violation.
    ProtocolChecker strict;
    strict.check(t);
    strict.finalize();
    EXPECT_FALSE(strict.clean());
}

TEST(Checker, TracksInferredStates)
{
    EciTrace t;
    t.record(0, msg(eci::Opcode::RLDX, 1, 0x80));
    auto grant = msg(eci::Opcode::PEMD, 1, 0x80, mem::NodeId::Fpga);
    grant.grant = eci::Grant::Exclusive;
    t.record(10, grant);
    ProtocolChecker c;
    c.check(t);
    EXPECT_EQ(c.inferredState(mem::NodeId::Cpu, 0x80),
              cache::MoesiState::Exclusive);
    EXPECT_EQ(c.inferredState(mem::NodeId::Fpga, 0x80),
              cache::MoesiState::Invalid);
}

} // namespace
} // namespace enzian::trace
