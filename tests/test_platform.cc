/**
 * @file
 * Tests for platform composition, presets, and reference data.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "mem/address_map.hh"
#include "platform/boot_sequencer.hh"
#include "platform/link_models.hh"
#include "platform/platform_factory.hh"

namespace enzian::platform {
namespace {

TEST(Params, PaperConstants)
{
    EXPECT_EQ(params::cpuCores, 48u);
    EXPECT_DOUBLE_EQ(params::cpuClockHz, 2.0e9);
    EXPECT_EQ(params::eciLinks, 2u);
    EXPECT_EQ(params::eciLanesPerLink, 12u);
    EXPECT_EQ(params::eciLinks * params::eciLanesPerLink, 24u);
    EXPECT_EQ(params::tcpMtu, 2048u);
}

TEST(Params, EciLinkBandwidthNearTheoretical)
{
    // 12 lanes x 10 Gb/s = 15 GB/s raw per link x efficiency.
    const auto cfg = params::eciLinkConfig();
    const double raw = cfg.lanes * cfg.lane_gbps * 1e9 / 8.0;
    EXPECT_NEAR(raw, 15e9, 1e6);
    // Two links: 30 GB/s theoretical, as the paper states 30 GiB/s
    // "theoretical bandwidth in each direction" for the full fabric.
    EXPECT_NEAR(2 * raw / 1e9, 30.0, 0.1);
}

TEST(Machine, ConstructsAndWiresEverything)
{
    EnzianMachine::Config cfg = enzianDefaultConfig();
    cfg.cpu_dram_bytes = 16ull << 20;
    cfg.fpga_dram_bytes = 16ull << 20;
    EnzianMachine m(cfg);
    EXPECT_EQ(m.cluster().coreCount(), 48u);
    EXPECT_EQ(m.fabric().linkCount(), 2u);
    EXPECT_EQ(m.bmc().regulatorCount(), 25u);
    EXPECT_TRUE(m.fpga().eciReady());
    EXPECT_NEAR(m.fpga().clock().frequencyHz(), 300e6, 1.0);
}

TEST(Machine, BitstreamReload)
{
    EnzianMachine::Config cfg = enzianDefaultConfig();
    cfg.cpu_dram_bytes = 16ull << 20;
    cfg.fpga_dram_bytes = 16ull << 20;
    EnzianMachine m(cfg);
    m.loadBitstream("coyote-shell");
    EXPECT_NEAR(m.fpga().clock().frequencyHz(), 250e6, 1.0);
}

TEST(Machine, L2SetsFollowTraffic)
{
    EnzianMachine::Config cfg = enzianDefaultConfig();
    cfg.cpu_dram_bytes = 16ull << 20;
    cfg.fpga_dram_bytes = 16ull << 20;
    EnzianMachine m(cfg);
    constexpr std::uint32_t n = 64;
    std::uint32_t done = 0;
    auto count = [&done](Tick) { ++done; };

    // FPGA reads of CPU-homed lines only probe the L2.
    for (std::uint32_t i = 0; i < n; ++i) {
        m.fpgaRemote().readLineUncached(Addr{i} * cache::lineSize,
                                        nullptr, count);
    }
    m.run();
    ASSERT_EQ(done, n);
    EXPECT_LE(m.l2().allocatedSets(), n);

    // CPU reads of distinct FPGA-homed lines fill one set each.
    for (std::uint32_t i = 0; i < n; ++i) {
        m.cpuRemote().readLine(
            mem::AddressMap::fpgaDramBase + Addr{i} * cache::lineSize,
            nullptr, count);
    }
    m.run();
    ASSERT_EQ(done, 2 * n);
    EXPECT_GE(m.l2().allocatedSets(), n);
    EXPECT_LE(m.l2().allocatedSets(), 2 * n);
}

TEST(Factory, PcieAcceleratorPresets)
{
    for (const char *name : {"alveo-u250", "f1", "vcu118"}) {
        auto sys = makePcieAccelerator(name);
        EXPECT_NE(sys.dma, nullptr) << name;
        EXPECT_NEAR(sys.link->wireBandwidth(), 15.75e9, 0.1e9);
    }
}

TEST(FactoryDeathTest, UnknownAcceleratorFatal)
{
    EXPECT_EXIT(makePcieAccelerator("gpu"),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(Factory, TwoSocketConfigIsSymmetricAndFaster)
{
    const auto enz = enzianDefaultConfig();
    const auto two = twoSocketThunderXConfig();
    EXPECT_EQ(two.link.cpu_proc_ns, two.link.fpga_proc_ns);
    EXPECT_LT(two.link.fpga_proc_ns, enz.link.fpga_proc_ns);
    EXPECT_EQ(two.policy, eci::BalancePolicy::LeastLoaded);
}

TEST(Factory, GbdtPlatformTable)
{
    EXPECT_EQ(gbdtPlatformNames().size(), 4u);
    const auto enzian = gbdtPlatformConfig("Enzian", 1);
    const auto f1 = gbdtPlatformConfig("Amazon-F1", 1);
    EXPECT_GT(enzian.clock_hz, f1.clock_hz); // speed-grade advantage
}

TEST(LinkModels, ReferencePointsCited)
{
    const auto pts = fig3ReferencePoints();
    EXPECT_GE(pts.size(), 6u);
    for (const auto &p : pts) {
        EXPECT_TRUE(p.reference);
        EXPECT_GT(p.bandwidth_gib, 0.0);
        EXPECT_GT(p.latency_us, 0.0);
    }
}

TEST(Machine, TwoSocketLatencyBeatsEnzian)
{
    auto measure = [](const EnzianMachine::Config &base) {
        EnzianMachine::Config cfg = base;
        cfg.cpu_dram_bytes = 16ull << 20;
        cfg.fpga_dram_bytes = 16ull << 20;
        cfg.cpu_caches_remote = false;
        EnzianMachine m(cfg);
        Tick done_at = 0;
        bool done = false;
        m.cpuRemote().readLineUncached(
            mem::AddressMap::fpgaDramBase, nullptr, [&](Tick t) {
                done = true;
                done_at = t;
            });
        m.eventq().run();
        EXPECT_TRUE(done);
        return done_at;
    };
    const Tick enzian = measure(enzianDefaultConfig());
    const Tick two_socket = measure(twoSocketThunderXConfig());
    EXPECT_LT(two_socket, enzian);
    // Paper: ~150 ns for the 2-socket reference (plus DRAM); ours
    // should land within a small factor.
    EXPECT_LT(units::toNanos(two_socket), 400.0);
    EXPECT_GT(units::toNanos(enzian), 400.0);
}

} // namespace
} // namespace enzian::platform

namespace enzian::platform {
namespace {

TEST(Machine, HomeReadAllocateKeepsResidentCopy)
{
    // With home_read_allocate on, a CPU local read whose line lives
    // dirty on the FPGA pulls the data home AND installs it in the
    // L2, so the home keeps a resident Shared copy afterwards. Off
    // (the default), the L2 stays cold — reference runs unchanged.
    for (const bool knob : {false, true}) {
        EnzianMachine::Config cfg = enzianDefaultConfig();
        cfg.cpu_dram_bytes = 16ull << 20;
        cfg.fpga_dram_bytes = 16ull << 20;
        cfg.home_read_allocate = knob;
        EnzianMachine m(cfg);
        cache::Cache fpgaCache("fpga.cache", m.fpgaEventq(),
                               cache::Cache::Config{});
        m.fpgaRemote().attachCache(&fpgaCache);

        const Addr line = 0x20000; // CPU-homed
        std::uint8_t buf[cache::lineSize];
        std::memset(buf, 0x5a, sizeof(buf));
        bool done = false;
        m.fpgaRemote().writeLine(line, buf, [&](Tick) { done = true; });
        m.eventq().run();
        ASSERT_TRUE(done);
        // The exclusive grant invalidated any home copy.
        EXPECT_EQ(m.l2().probe(line), cache::MoesiState::Invalid);

        std::uint8_t out[cache::lineSize] = {};
        done = false;
        m.cpuHome().localRead(line, out, [&](Tick) { done = true; });
        m.eventq().run();
        ASSERT_TRUE(done);
        EXPECT_EQ(out[0], 0x5a);
        EXPECT_EQ(m.l2().probe(line), knob
                                          ? cache::MoesiState::Shared
                                          : cache::MoesiState::Invalid);
        if (knob) {
            const cache::LineHandle cached = m.l2().lookup(line);
            ASSERT_TRUE(cached);
            EXPECT_EQ(cached.data()[17], 0x5a);
        }
    }
}

TEST(Machine, StatsDumpCoversComponents)
{
    EnzianMachine::Config cfg = enzianDefaultConfig();
    cfg.cpu_dram_bytes = 16ull << 20;
    cfg.fpga_dram_bytes = 16ull << 20;
    EnzianMachine m(cfg);
    bool done = false;
    m.fpgaRemote().readLineUncached(0, nullptr,
                                    [&](Tick) { done = true; });
    m.eventq().run();
    ASSERT_TRUE(done);

    std::ostringstream os;
    m.dumpStats(os);
    const std::string s = os.str();
    for (const char *key :
         {"cpu.l2.hits", "eci.link0.messages", "cpu.home.requests",
          "fpga.remote.requests", "cpu.mem.dram.ch0.bytes",
          "bmc.i2c.transactions"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    // The read really shows up in the counters.
    EXPECT_NE(s.find("cpu.home.requests_served 1"), std::string::npos);
}

} // namespace
} // namespace enzian::platform
