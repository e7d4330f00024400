/**
 * @file
 * Additional network-substrate coverage: MSS/window edges, multiple
 * stack pairs sharing a switch, ack accounting, and link edge cases.
 */

#include <gtest/gtest.h>

#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "platform/params.hh"

namespace enzian::net {
namespace {

Switch::Config
switchConfig()
{
    Switch::Config cfg;
    cfg.port = platform::params::eth100Config();
    return cfg;
}

TEST(TcpEdge, SingleByteStream)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    bool done = false;
    a.send(id, 1, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(id), 1u);
}

TEST(TcpEdge, TransferNotMultipleOfMss)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    const std::uint64_t n = 3 * a.config().mss + 17;
    bool done = false;
    a.send(id, n, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(id), n);
    EXPECT_EQ(a.segmentsSent(), 4u);
}

TEST(TcpEdge, BackToBackSendsOnOneFlowStayOrdered)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    std::vector<Tick> completions;
    for (int i = 0; i < 5; ++i)
        a.send(id, 10000, [&](Tick t) { completions.push_back(t); });
    eq.run();
    ASSERT_EQ(completions.size(), 5u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i], completions[i - 1]);
    EXPECT_EQ(b.bytesReceived(id), 50000u);
}

TEST(TcpEdge, TwoStackPairsShareOneSwitch)
{
    EventQueue eq;
    Switch sw("sw", eq, 4, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    TcpStack c("c", eq, sw, hostTcpConfig(2));
    TcpStack d("d", eq, sw, hostTcpConfig(3));
    const auto ab = a.connect(b);
    const auto cd = c.connect(d);
    int done = 0;
    a.send(ab, 1 << 20, [&](Tick) { ++done; });
    c.send(cd, 1 << 20, [&](Tick) { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(b.bytesReceived(ab), 1u << 20);
    EXPECT_EQ(d.bytesReceived(cd), 1u << 20);
}

TEST(TcpEdge, ReceiveCallbackSeesCumulativeBytes)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    std::uint64_t delivered = 0;
    b.setReceiveCallback([&](std::uint32_t f, std::uint64_t bytes) {
        delivered += bytes;
        EXPECT_LE(delivered, b.bytesReceived(f) + bytes);
    });
    a.send(id, 100000, [](Tick) {});
    eq.run();
    EXPECT_EQ(delivered, 100000u);
}

TEST(SwitchEdge, ManyPortsAllToAll)
{
    EventQueue eq;
    Switch sw("sw", eq, 6, switchConfig());
    int received[6] = {};
    for (std::uint32_t p = 0; p < 6; ++p) {
        sw.setEndpoint(p, [&received, p](Tick, Frame &&) {
            ++received[p];
        });
    }
    for (std::uint32_t s = 0; s < 6; ++s)
        for (std::uint32_t d = 0; d < 6; ++d)
            if (s != d)
                sw.sendFrom(s, Frame{256, d, {}});
    eq.run();
    for (int p = 0; p < 6; ++p)
        EXPECT_EQ(received[p], 5);
}

TEST(SwitchEdgeDeathTest, TooFewPortsFatal)
{
    EventQueue eq;
    EXPECT_EXIT(Switch("bad", eq, 1, switchConfig()),
                ::testing::ExitedWithCode(1), "at least 2");
}

} // namespace
} // namespace enzian::net
