/**
 * @file
 * Tests for DeviceTree generation, the BDK ECI bring-up, and the
 * Catapult bump-in-the-wire network element.
 */

#include <gtest/gtest.h>

#include "net/bump_in_wire.hh"
#include "platform/bdk.hh"
#include "platform/device_tree.hh"
#include "platform/platform_factory.hh"

namespace enzian::platform {
namespace {

EnzianMachine::Config
smallConfig()
{
    auto cfg = enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    return cfg;
}

TEST(DeviceTree, GeneratesValidAsymmetricTree)
{
    EnzianMachine m(smallConfig());
    const std::string dts = generateDeviceTree(m);
    std::string err;
    EXPECT_TRUE(validateDeviceTree(dts, m, err)) << err;
    // All CPUs in node 0; no cpu in node 1.
    EXPECT_NE(dts.find("cpu@47"), std::string::npos);
    EXPECT_EQ(dts.find("cpu@48"), std::string::npos);
    // FPGA memory window present as node 1.
    EXPECT_NE(dts.find("numa-node-id = <1>"), std::string::npos);
    EXPECT_NE(dts.find("memory@0x10000000000"), std::string::npos);
}

TEST(DeviceTree, FpgaMemoryCanBeHidden)
{
    // "the other may or may not appear to have memory" (section 4.4).
    EnzianMachine m(smallConfig());
    DeviceTreeOptions opts;
    opts.expose_fpga_memory = false;
    const std::string dts = generateDeviceTree(m, opts);
    EXPECT_EQ(dts.find("numa-node-id = <1>"), std::string::npos);
    std::string err;
    EXPECT_TRUE(validateDeviceTree(dts, m, err)) << err;
}

TEST(DeviceTree, EciNodeReflectsLinkGeometry)
{
    auto cfg = smallConfig();
    cfg.link.lanes = 4;
    EnzianMachine m(cfg);
    const std::string dts = generateDeviceTree(m);
    EXPECT_NE(dts.find("ethz,links = <2>"), std::string::npos);
    EXPECT_NE(dts.find("ethz,lanes-per-link = <4>"),
              std::string::npos);
}

TEST(DeviceTree, ValidatorCatchesCorruption)
{
    EnzianMachine m(smallConfig());
    std::string dts = generateDeviceTree(m);
    std::string err;
    std::string broken = dts;
    broken.erase(broken.rfind('}'), 1);
    EXPECT_FALSE(validateDeviceTree(broken, m, err));
    std::string missing = dts;
    const auto pos = missing.find("cpus {");
    missing.replace(pos, 4, "xpus");
    EXPECT_FALSE(validateDeviceTree(missing, m, err));
}

TEST(Bdk, TrainsAllLanesOnHealthyBoard)
{
    EnzianMachine m(smallConfig());
    BdkEciBringup::Config bcfg;
    bcfg.retrain_chance = 0.0;
    BdkEciBringup bdk("bdk", m.eventq(), m, bcfg);
    Tick done_at = 0;
    bdk.start([&](Tick t) { done_at = t; });
    m.eventq().run();
    ASSERT_TRUE(bdk.complete());
    EXPECT_EQ(bdk.lanesUp(0), 12u);
    EXPECT_EQ(bdk.lanesUp(1), 12u);
    // One training pass per lane: ~350 us.
    EXPECT_NEAR(units::toMicros(done_at), 350.0, 5.0);
    EXPECT_EQ(m.fabric().link(0).lanes(), 12u);
}

TEST(Bdk, DialDownTrainsFourLanes)
{
    EnzianMachine m(smallConfig());
    BdkEciBringup::Config bcfg;
    bcfg.lanes_per_link = 4; // early bring-up configuration
    bcfg.retrain_chance = 0.0;
    BdkEciBringup bdk("bdk", m.eventq(), m, bcfg);
    bool done = false;
    bdk.start([&](Tick) { done = true; });
    m.eventq().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(m.fabric().link(0).lanes(), 4u);
    // Bandwidth reflects the dial-down.
    EXPECT_NEAR(m.fabric().link(0).effectiveBandwidth(),
                4 * 10e9 / 8.0 * 0.92, 1e7);
}

TEST(Bdk, MarginalLanesRetrain)
{
    EnzianMachine m(smallConfig());
    BdkEciBringup::Config bcfg;
    bcfg.retrain_chance = 0.5;
    bcfg.seed = 7;
    BdkEciBringup bdk("bdk", m.eventq(), m, bcfg);
    Tick done_at = 0;
    bdk.start([&](Tick t) { done_at = t; });
    m.eventq().run();
    ASSERT_TRUE(bdk.complete());
    EXPECT_GT(bdk.retrains(), 0u);
    // Retrains stretch the bring-up beyond one pass.
    EXPECT_GT(units::toMicros(done_at), 360.0);
    EXPECT_GT(bdk.lanesUp(0), 0u);
}

TEST(BdkDeathTest, RefusesImageWithoutEci)
{
    auto cfg = smallConfig();
    cfg.bitstream = "power-burn"; // no ECI layers
    EnzianMachine m(cfg);
    BdkEciBringup bdk("bdk", m.eventq(), m, BdkEciBringup::Config{});
    EXPECT_EXIT(bdk.start([](Tick) {}), ::testing::ExitedWithCode(1),
                "no ECI layers");
}

class BumpInWireTest : public ::testing::Test
{
  protected:
    BumpInWireTest()
    {
        net::EthernetLink::Config net_cfg =
            params::eth100Config(); // switch side: 100 G
        net::EthernetLink::Config host_cfg = net_cfg;
        host_cfg.rate_gbps = 40.0; // ThunderX NIC side
        net_link = std::make_unique<net::EthernetLink>("net", eq,
                                                       net_cfg);
        host_link = std::make_unique<net::EthernetLink>("host", eq,
                                                        host_cfg);
        biw = std::make_unique<net::BumpInWire>(
            "biw", eq, *net_link, *host_link,
            net::BumpInWire::Config{});
    }

    EventQueue eq;
    std::unique_ptr<net::EthernetLink> net_link, host_link;
    std::unique_ptr<net::BumpInWire> biw;
};

TEST_F(BumpInWireTest, FramesTraverseBothDirections)
{
    std::uint64_t host_got = 0, net_got = 0;
    host_link->setReceiver(
        1, [&](Tick, net::Frame &&f) { host_got = f.bytes; });
    net_link->setReceiver(
        0, [&](Tick, net::Frame &&f) { net_got = f.bytes; });
    // From the network toward the host, and back.
    net_link->send(0, net::Frame{1500, 0, {}});
    host_link->send(1, net::Frame{900, 0, {}});
    eq.run();
    EXPECT_EQ(host_got, 1500u);
    EXPECT_EQ(net_got, 900u);
    EXPECT_EQ(biw->framesToHost(), 1u);
    EXPECT_EQ(biw->framesToNet(), 1u);
}

TEST_F(BumpInWireTest, InlineTransformChangesFrames)
{
    // Inline compression: frames toward the host shrink 4x.
    biw->setTransform([](bool to_host, std::uint64_t bytes) {
        return to_host ? bytes / 4 : bytes * 4;
    });
    std::uint64_t host_got = 0;
    host_link->setReceiver(
        1, [&](Tick, net::Frame &&f) { host_got = f.bytes; });
    net_link->send(0, net::Frame{2000, 0, {}});
    eq.run();
    EXPECT_EQ(host_got, 500u);
    EXPECT_EQ(biw->bytesIn(), 2000u);
    EXPECT_EQ(biw->bytesOut(), 500u);
}

TEST_F(BumpInWireTest, PipelineAddsBoundedLatency)
{
    host_link->setReceiver(1, [](Tick, net::Frame &&) {});
    Tick direct = 0, through = 0;
    {
        // Direct 100G link for reference.
        EventQueue q2;
        net::EthernetLink ref("ref", q2, params::eth100Config());
        ref.setReceiver(1, [](Tick, net::Frame &&) {});
        direct = ref.send(0, net::Frame{1500, 0, {}});
    }
    // Through the bump: delivered tick at the host link.
    Tick delivered = 0;
    host_link->setReceiver(1,
                           [&](Tick t, net::Frame &&) { delivered = t; });
    net_link->send(0, net::Frame{1500, 0, {}});
    eq.run();
    through = delivered;
    // The added latency is the pipeline delay plus the second hop,
    // i.e. microseconds at most - not a store-and-forward stall.
    EXPECT_GT(through, direct);
    EXPECT_LT(units::toMicros(through - direct), 2.0);
}

} // namespace
} // namespace enzian::platform
