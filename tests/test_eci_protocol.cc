/**
 * @file
 * Integration tests for the ECI coherence protocol over the full
 * machine: cached/uncached transfers, snoops, upgrades, writebacks,
 * evictions, I/O, and IPIs.
 */

#include <gtest/gtest.h>

#include <array>

#include "base/flat_map.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"
#include "trace/checker.hh"

namespace enzian {
namespace {

using eci::RemoteAgent;
using mem::AddressMap;
using platform::EnzianMachine;

class EciProtocolTest : public ::testing::Test
{
  protected:
    EciProtocolTest()
    {
        EnzianMachine::Config cfg = platform::enzianDefaultConfig();
        cfg.cpu_dram_bytes = 64ull << 20;
        cfg.fpga_dram_bytes = 64ull << 20;
        m = std::make_unique<EnzianMachine>(cfg);
    }

    /** Run the queue until @p flag is set (or fail). */
    void
    runUntilDone(const bool &flag)
    {
        for (int i = 0; i < 100000 && !flag; ++i) {
            if (!m->eventq().runOne())
                break;
        }
        ASSERT_TRUE(flag) << "operation never completed";
    }

    std::vector<std::uint8_t>
    pattern(std::uint8_t seed)
    {
        std::vector<std::uint8_t> d(cache::lineSize);
        for (std::size_t i = 0; i < d.size(); ++i)
            d[i] = static_cast<std::uint8_t>(seed ^ (i * 13));
        return d;
    }

    std::unique_ptr<EnzianMachine> m;
};

TEST_F(EciProtocolTest, CpuCachedReadOfFpgaMemory)
{
    const Addr line = AddressMap::fpgaDramBase + 0x1000;
    const auto data = pattern(0x42);
    m->fpgaMem().store().write(0x1000, data.data(), data.size());

    std::uint8_t out[cache::lineSize] = {};
    bool done = false;
    Tick done_at = 0;
    m->cpuRemote().readLine(line, out, [&](Tick t) {
        done = true;
        done_at = t;
    });
    runUntilDone(done);

    EXPECT_EQ(std::memcmp(out, data.data(), cache::lineSize), 0);
    // First touch, no other copies: granted Exclusive.
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Exclusive);
    EXPECT_EQ(m->fpgaHome().remoteState(line),
              cache::MoesiState::Exclusive);
    // Remote refill latency should be in the sub-microsecond range.
    EXPECT_GT(done_at, units::ns(300));
    EXPECT_LT(done_at, units::us(3));
}

TEST_F(EciProtocolTest, SecondReadHitsInL2)
{
    const Addr line = AddressMap::fpgaDramBase + 0x2000;
    bool done = false;
    m->cpuRemote().readLine(line, nullptr, [&](Tick) { done = true; });
    runUntilDone(done);
    const auto reqs = m->cpuRemote().requestsSent();

    bool done2 = false;
    Tick t2 = 0;
    m->cpuRemote().readLine(line, nullptr, [&](Tick t) {
        done2 = true;
        t2 = t;
    });
    runUntilDone(done2);
    EXPECT_EQ(m->cpuRemote().requestsSent(), reqs); // no new request
    EXPECT_EQ(m->cpuRemote().hitsLocal(), 1u);
}

TEST_F(EciProtocolTest, CachedWriteMissObtainsExclusiveAndDirties)
{
    const Addr line = AddressMap::fpgaDramBase + 0x3000;
    const auto data = pattern(0x77);
    bool done = false;
    m->cpuRemote().writeLine(line, data.data(), [&](Tick) {
        done = true;
    });
    runUntilDone(done);
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Modified);
    // Data is only in the L2 so far, not in FPGA DRAM.
    std::uint8_t mem_now[cache::lineSize];
    m->fpgaMem().store().read(0x3000, mem_now, cache::lineSize);
    EXPECT_NE(std::memcmp(mem_now, data.data(), cache::lineSize), 0);

    // Flushing pushes it home.
    bool flushed = false;
    m->cpuRemote().flushAll([&](Tick) { flushed = true; });
    runUntilDone(flushed);
    m->fpgaMem().store().read(0x3000, mem_now, cache::lineSize);
    EXPECT_EQ(std::memcmp(mem_now, data.data(), cache::lineSize), 0);
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Invalid);
    EXPECT_EQ(m->fpgaHome().remoteState(line),
              cache::MoesiState::Invalid);
}

TEST_F(EciProtocolTest, FpgaUncachedReadSeesCpuDirtyData)
{
    // CPU dirties a line of its own memory in L2 (simulating a store
    // that hit): install directly in the local cache.
    const Addr line = 0x8000; // CPU-homed
    const auto dirty = pattern(0x99);
    m->l2().fill(line, cache::MoesiState::Modified, dirty.data());

    // FPGA reads the line uncached over ECI: the home agent must
    // source it from the dirty L2 copy, not stale DRAM.
    std::uint8_t out[cache::lineSize] = {};
    bool done = false;
    m->fpgaRemote().readLineUncached(line, out, [&](Tick) {
        done = true;
    });
    runUntilDone(done);
    EXPECT_EQ(std::memcmp(out, dirty.data(), cache::lineSize), 0);
}

TEST_F(EciProtocolTest, FpgaUncachedWriteInvalidatesCpuCopy)
{
    const Addr line = 0x9000;
    m->l2().fill(line, cache::MoesiState::Exclusive,
                 pattern(0x11).data());

    const auto fresh = pattern(0x22);
    bool done = false;
    m->fpgaRemote().writeLineUncached(line, fresh.data(), [&](Tick) {
        done = true;
    });
    runUntilDone(done);
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Invalid);
    std::uint8_t mem_now[cache::lineSize];
    m->cpuMem().store().read(line, mem_now, cache::lineSize);
    EXPECT_EQ(std::memcmp(mem_now, fresh.data(), cache::lineSize), 0);
}

TEST_F(EciProtocolTest, SharedThenUpgrade)
{
    const Addr line = AddressMap::fpgaDramBase + 0x4000;
    // Give the FPGA node a local cache holding the line Shared, so
    // the CPU's RLDD is granted Shared rather than Exclusive.
    cache::Cache::Config fc;
    fc.size_bytes = 64 * 1024;
    fc.ways = 4;
    cache::Cache fpga_cache("fpga.l1", m->eventq(), fc);
    fpga_cache.fill(line, cache::MoesiState::Shared,
                    pattern(0x44).data());
    m->fpgaHome().attachLocalCache(&fpga_cache);

    bool done = false;
    m->cpuRemote().readLine(line, nullptr, [&](Tick) { done = true; });
    runUntilDone(done);
    ASSERT_EQ(m->l2().probe(line), cache::MoesiState::Shared);

    const auto data = pattern(0x55);
    bool wrote = false;
    const auto reqs_before = m->cpuRemote().requestsSent();
    m->cpuRemote().writeLine(line, data.data(), [&](Tick) {
        wrote = true;
    });
    runUntilDone(wrote);
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Modified);
    EXPECT_EQ(m->fpgaHome().remoteState(line),
              cache::MoesiState::Modified);
    EXPECT_EQ(m->cpuRemote().requestsSent(), reqs_before + 1); // RUPG
}

TEST_F(EciProtocolTest, HomeLocalReadSnoopsRemoteModified)
{
    // CPU writes (cached) a FPGA-homed line -> L2 holds it Modified.
    const Addr line = AddressMap::fpgaDramBase + 0x5000;
    const auto data = pattern(0x66);
    bool wrote = false;
    m->cpuRemote().writeLine(line, data.data(), [&](Tick) {
        wrote = true;
    });
    runUntilDone(wrote);

    // The FPGA node itself now reads its own homed line: the home
    // agent must SFWD-snoop the CPU's L2 and get the dirty data.
    std::uint8_t out[cache::lineSize] = {};
    bool read_done = false;
    m->fpgaHome().localRead(line, out, [&](Tick) { read_done = true; });
    runUntilDone(read_done);
    EXPECT_EQ(std::memcmp(out, data.data(), cache::lineSize), 0);
    // After the forward, the CPU keeps a Shared copy.
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Shared);
    EXPECT_EQ(m->fpgaHome().remoteState(line),
              cache::MoesiState::Shared);
    EXPECT_EQ(m->fpgaHome().snoopsSent(), 1u);
}

TEST_F(EciProtocolTest, HomeLocalWriteInvalidatesRemote)
{
    const Addr line = AddressMap::fpgaDramBase + 0x6000;
    bool read_done = false;
    m->cpuRemote().readLine(line, nullptr, [&](Tick) {
        read_done = true;
    });
    runUntilDone(read_done);
    ASSERT_NE(m->l2().probe(line), cache::MoesiState::Invalid);

    const auto data = pattern(0xAB);
    bool wrote = false;
    m->fpgaHome().localWrite(line, data.data(), [&](Tick) {
        wrote = true;
    });
    runUntilDone(wrote);
    EXPECT_EQ(m->l2().probe(line), cache::MoesiState::Invalid);
    std::uint8_t mem_now[cache::lineSize];
    m->fpgaMem().store().read(0x6000, mem_now, cache::lineSize);
    EXPECT_EQ(std::memcmp(mem_now, data.data(), cache::lineSize), 0);
}

TEST_F(EciProtocolTest, EvictionWritesBackDirtyVictim)
{
    // Fill one L2 set past associativity with dirty lines; victims
    // must land in FPGA memory.
    const Addr stride =
        static_cast<Addr>(m->l2().sets()) * cache::lineSize;
    const std::uint32_t n = m->l2().ways() + 2;
    std::uint32_t completed = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr line = AddressMap::fpgaDramBase + 0x7000 +
                          static_cast<Addr>(i) * stride;
        auto data = pattern(static_cast<std::uint8_t>(i));
        bool done = false;
        m->cpuRemote().writeLine(line, data.data(), [&](Tick) {
            done = true;
            ++completed;
        });
        runUntilDone(done);
    }
    m->eventq().run();
    EXPECT_EQ(completed, n);
    // At least two victims were written back; verify the first one.
    std::uint8_t mem_now[cache::lineSize];
    m->fpgaMem().store().read(0x7000, mem_now, cache::lineSize);
    EXPECT_EQ(std::memcmp(mem_now, pattern(0).data(), cache::lineSize),
              0);
    EXPECT_EQ(m->l2().probe(AddressMap::fpgaDramBase + 0x7000),
              cache::MoesiState::Invalid);
}

TEST_F(EciProtocolTest, IoReadWriteRoundTrip)
{
    // Map a toy device in the FPGA I/O window.
    std::uint64_t reg = 0x1111;
    eci::IoDevice dev;
    dev.read = [&](Addr, std::uint32_t) { return reg; };
    dev.write = [&](Addr, std::uint64_t v, std::uint32_t) { reg = v; };
    m->fpgaIo().map("toy", 0x100, 0x10, dev);

    bool wrote = false;
    m->cpuRemote().ioWrite(0x100, 0xabcd, 8, [&](Tick) {
        wrote = true;
    });
    runUntilDone(wrote);
    EXPECT_EQ(reg, 0xabcdu);

    bool read_done = false;
    std::uint64_t got = 0;
    m->cpuRemote().ioRead(0x100, 8, [&](Tick, std::uint64_t v) {
        read_done = true;
        got = v;
    });
    runUntilDone(read_done);
    EXPECT_EQ(got, 0xabcdu);
}

TEST_F(EciProtocolTest, IpiDelivery)
{
    std::uint32_t vec = 0;
    bool fired = false;
    m->fpgaHome().setIpiHandler([&](std::uint32_t v) {
        vec = v;
        fired = true;
    });
    m->cpuRemote().sendIpi(42);
    runUntilDone(fired);
    EXPECT_EQ(vec, 42u);
}

TEST_F(EciProtocolTest, MshrLimitQueuesExcessRequests)
{
    const std::uint32_t limit =
        m->config().remote_agent.max_outstanding;
    std::uint32_t completed = 0;
    const std::uint32_t n = limit * 3;
    for (std::uint32_t i = 0; i < n; ++i) {
        m->fpgaRemote().readLineUncached(
            0x10000 + static_cast<Addr>(i) * cache::lineSize, nullptr,
            [&](Tick) { ++completed; });
        EXPECT_LE(m->fpgaRemote().outstanding(), limit);
    }
    m->eventq().run();
    EXPECT_EQ(completed, n);
}

TEST_F(EciProtocolTest, ConcurrentMixedTrafficCompletes)
{
    std::uint32_t completed = 0;
    const std::uint32_t n = 200;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr cpu_line =
            0x20000 + static_cast<Addr>(i) * cache::lineSize;
        const Addr fpga_line = AddressMap::fpgaDramBase + 0x20000 +
                               static_cast<Addr>(i) * cache::lineSize;
        auto data = pattern(static_cast<std::uint8_t>(i));
        m->fpgaRemote().writeLineUncached(cpu_line, data.data(),
                                          [&](Tick) { ++completed; });
        m->cpuRemote().readLine(fpga_line, nullptr,
                                [&](Tick) { ++completed; });
    }
    m->eventq().run();
    EXPECT_EQ(completed, 2 * n);
    // Functional check on one of the writes.
    std::uint8_t mem_now[cache::lineSize];
    m->cpuMem().store().read(0x20000, mem_now, cache::lineSize);
    EXPECT_EQ(std::memcmp(mem_now, pattern(0).data(), cache::lineSize),
              0);
}

TEST(RemoteAgentTable, TransactionsOutgrowTheInitialTable)
{
    // More MSHRs than the transaction table's first allocation, so
    // the table grows while transactions are live. Recovery mode also
    // makes every request find its entry again after the send.
    EnzianMachine::Config cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    const std::uint32_t limit =
        4 * FlatMap<std::uint32_t, int>::initialCapacity;
    cfg.remote_agent.max_outstanding = limit;
    EnzianMachine m(cfg);
    m.cpuRemote().enableRecovery(1000.0, 8);
    m.fpgaRemote().enableRecovery(1000.0, 8);
    m.cpuHome().enableRecovery(1000.0, 8);
    m.fpgaHome().enableRecovery(1000.0, 8);

    const std::uint32_t n = 3 * limit;
    std::vector<std::array<std::uint8_t, cache::lineSize>> cpu_got(n);
    std::vector<std::array<std::uint8_t, cache::lineSize>> fpga_got(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::array<std::uint8_t, 8> tag{
            static_cast<std::uint8_t>(i), 0x11};
        m.fpgaMem().store().write(Addr{i} * cache::lineSize, tag.data(),
                                  tag.size());
        m.cpuMem().store().write(Addr{i} * cache::lineSize, tag.data(),
                                 tag.size());
    }
    std::uint32_t completed = 0;
    std::size_t peak = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr off = Addr{i} * cache::lineSize;
        m.cpuRemote().readLine(AddressMap::fpgaDramBase + off,
                               cpu_got[i].data(),
                               [&](Tick) { ++completed; });
        m.fpgaRemote().readLineUncached(off, fpga_got[i].data(),
                                        [&](Tick) { ++completed; });
        peak = std::max(peak, m.cpuRemote().outstanding());
    }
    EXPECT_EQ(peak, limit);
    m.eventq().run();
    EXPECT_EQ(completed, 2 * n);
    EXPECT_EQ(m.cpuRemote().outstanding(), 0u);
    EXPECT_EQ(m.cpuRemote().retriesSent(), 0u);
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(cpu_got[i][0], static_cast<std::uint8_t>(i)) << i;
        EXPECT_EQ(cpu_got[i][1], 0x11) << i;
        EXPECT_EQ(fpga_got[i][0], static_cast<std::uint8_t>(i)) << i;
        EXPECT_EQ(fpga_got[i][1], 0x11) << i;
    }
}

TEST_F(EciProtocolTest, UncachedReadDoesNotAllocateDirectory)
{
    const Addr line = 0x30000;
    bool done = false;
    m->fpgaRemote().readLineUncached(line, nullptr, [&](Tick) {
        done = true;
    });
    runUntilDone(done);
    EXPECT_EQ(m->cpuHome().remoteState(line),
              cache::MoesiState::Invalid);
}

} // namespace
} // namespace enzian

namespace enzian {
namespace {

TEST(EvictionOrdering, RefillNeverOvertakesEvictionOnReorderingLinks)
{
    // Regression for a fuzz-found race: with a tiny L2 and a
    // round-robin (reordering) link policy, a line is evicted and
    // immediately re-fetched in a tight loop. Tracked evictions must
    // keep the refill ordered behind the eviction so data is never
    // lost or stale.
    platform::EnzianMachine::Config cfg =
        platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    cfg.policy = eci::BalancePolicy::RoundRobin;
    platform::EnzianMachine m(cfg);

    trace::EciTrace tr;
    tr.attach(m.fabric());

    // Thrash one L2 set: stride by sets*lineSize, more lines than
    // ways, alternating writes (dirty evictions) and reads (clean).
    const Addr stride =
        static_cast<Addr>(m.l2().sets()) * cache::lineSize;
    const std::uint32_t lines = m.l2().ways() * 3;
    std::uint32_t completed = 0;
    Rng rng(5);
    for (int round = 0; round < 6; ++round) {
        for (std::uint32_t i = 0; i < lines; ++i) {
            const Addr line = mem::AddressMap::fpgaDramBase +
                              static_cast<Addr>(i) * stride;
            if (rng.chance(0.5)) {
                std::vector<std::uint8_t> d(
                    cache::lineSize,
                    static_cast<std::uint8_t>(i + round));
                m.cpuRemote().writeLine(line, d.data(),
                                        [&](Tick) { ++completed; });
            } else {
                m.cpuRemote().readLine(line, nullptr,
                                       [&](Tick) { ++completed; });
            }
        }
        m.eventq().run();
    }
    EXPECT_EQ(completed, 6u * lines);

    bool flushed = false;
    m.cpuRemote().flushAll([&](Tick) { flushed = true; });
    m.eventq().run();
    ASSERT_TRUE(flushed);

    trace::ProtocolChecker checker;
    checker.check(tr);
    checker.finalize();
    EXPECT_TRUE(checker.clean())
        << (checker.violations().empty() ? ""
                                         : checker.violations()[0]);
}

} // namespace
} // namespace enzian
