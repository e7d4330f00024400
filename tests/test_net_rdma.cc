/**
 * @file
 * Tests for the RDMA engine and its memory paths (FPGA DRAM, ECI
 * host path, PCIe host path, RNIC).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/rdma_engine.hh"
#include "net/rnic_model.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"

namespace enzian::net {
namespace {

Switch::Config
switchConfig()
{
    Switch::Config cfg;
    cfg.port = platform::params::eth100Config();
    cfg.port.mtu = 4096;
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> d(n);
    for (std::size_t i = 0; i < n; ++i)
        d[i] = static_cast<std::uint8_t>(seed + i * 3);
    return d;
}

TEST(RdmaDram, ReadWriteRoundTrip)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    mem::MemoryController mc("fpga.mem", eq, 64 << 20, 4,
                             platform::params::fpgaDramConfig());
    DirectDramPath path(mc);
    RdmaTarget target("target", eq, sw, path, RdmaTarget::Config{});
    RdmaInitiator init("init", eq, sw, 1, 0);

    const auto data = pattern(8192, 0x10);
    bool wrote = false;
    init.write(0x1000, data.data(), data.size(), [&](Tick) {
        wrote = true;
    });
    eq.run();
    ASSERT_TRUE(wrote);

    std::vector<std::uint8_t> back(data.size());
    bool read_done = false;
    init.read(0x1000, back.data(), back.size(), [&](Tick) {
        read_done = true;
    });
    eq.run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(back, data);
    EXPECT_EQ(target.requestsServed(), 2u);
}

TEST(RdmaCall, HandlerStatusAndReplyRoundTrip)
{
    // A two-sided request carries its header arguments and payload to
    // the target's handler; the handler's status and reply come back
    // in the completion once its ready tick has passed.
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    mem::MemoryController mc("fpga.mem", eq, 64 << 20, 4,
                             platform::params::fpgaDramConfig());
    DirectDramPath path(mc);
    RdmaTarget target("target", eq, sw, path, RdmaTarget::Config{});
    RdmaInitiator init("init", eq, sw, 1, 0);

    constexpr RdmaOp kReverse{40};
    const Tick ready = units::us(5.0);
    target.setHandler(kReverse, [&](RdmaTarget::WireRequest &req) {
        std::reverse(req.data.begin(), req.data.end());
        req.data.push_back(static_cast<std::uint8_t>(req.key));
        req.ok = req.key % 2 == 1;
        return ready;
    });

    struct Result
    {
        Tick at = 0;
        bool ok = false;
        std::vector<std::uint8_t> reply;
    };
    std::vector<Result> results(2);
    for (std::uint64_t key : {7u, 8u}) {
        RdmaTarget::WireRequest req;
        req.op = kReverse;
        req.key = key;
        req.data = {1, 2, 3};
        init.call(std::move(req),
                  [&results, key](Tick t, bool ok,
                                  std::vector<std::uint8_t> reply) {
                      results[key - 7] = {t, ok, std::move(reply)};
                  });
    }
    eq.run();

    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[0].reply, (std::vector<std::uint8_t>{3, 2, 1, 7}));
    EXPECT_EQ(results[1].reply, (std::vector<std::uint8_t>{3, 2, 1, 8}));
    for (const auto &r : results)
        EXPECT_GT(r.at, ready);
    EXPECT_EQ(target.requestsServed(), 2u);
}

TEST(RdmaCallDeath, UnregisteredOpIsFatal)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    mem::MemoryController mc("fpga.mem", eq, 64 << 20, 4,
                             platform::params::fpgaDramConfig());
    DirectDramPath path(mc);
    RdmaTarget target("target", eq, sw, path, RdmaTarget::Config{});
    RdmaInitiator init("init", eq, sw, 1, 0);
    RdmaTarget::WireRequest req;
    req.op = RdmaOp{40};
    EXPECT_DEATH(
        {
            init.call(std::move(req),
                      [](Tick, bool, std::vector<std::uint8_t>) {});
            eq.run();
        },
        "no handler");
}

TEST(RdmaEciHost, CoherentWithCpuL2)
{
    // Target = Enzian FPGA serving host (CPU) memory over ECI.
    platform::EnzianMachine::Config mcfg =
        platform::enzianDefaultConfig();
    mcfg.cpu_dram_bytes = 64ull << 20;
    mcfg.fpga_dram_bytes = 64ull << 20;
    platform::EnzianMachine m(mcfg);
    Switch sw("sw", m.eventq(), 2, switchConfig());
    EciHostPath path(m.fpgaRemote(), 0x10000);
    RdmaTarget target("target", m.eventq(), sw, path,
                      RdmaTarget::Config{});
    RdmaInitiator init("init", m.eventq(), sw, 1, 0);

    // CPU L2 holds a dirty copy of the region's first line; an RDMA
    // read must observe the dirty data (coherence through ECI).
    const auto dirty = pattern(cache::lineSize, 0x20);
    m.l2().fill(0x10000, cache::MoesiState::Modified, dirty.data());

    std::vector<std::uint8_t> back(cache::lineSize);
    bool done = false;
    init.read(0, back.data(), back.size(), [&](Tick) { done = true; });
    m.eventq().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(std::memcmp(back.data(), dirty.data(), cache::lineSize),
              0);

    // An RDMA write must invalidate the CPU's cached copy.
    const auto fresh = pattern(cache::lineSize, 0x30);
    bool wrote = false;
    init.write(0, fresh.data(), fresh.size(), [&](Tick) {
        wrote = true;
    });
    m.eventq().run();
    ASSERT_TRUE(wrote);
    EXPECT_EQ(m.l2().probe(0x10000), cache::MoesiState::Invalid);
    std::uint8_t now_mem[cache::lineSize];
    m.cpuMem().store().read(0x10000, now_mem, cache::lineSize);
    EXPECT_EQ(std::memcmp(now_mem, fresh.data(), cache::lineSize), 0);
}

TEST(RdmaPcieHost, FunctionalThroughDma)
{
    auto sys = platform::makePcieAccelerator("alveo-u250");
    Switch sw("sw", *sys.eq, 2, switchConfig());
    PcieHostPath path(*sys.dma, 0x100000, 0x200000);
    RdmaTarget target("target", *sys.eq, sw, path,
                      RdmaTarget::Config{});
    RdmaInitiator init("init", *sys.eq, sw, 1, 0);

    const auto data = pattern(4096, 0x40);
    bool wrote = false;
    init.write(0x80, data.data(), data.size(), [&](Tick) {
        wrote = true;
    });
    sys.eq->run();
    ASSERT_TRUE(wrote);
    std::vector<std::uint8_t> host_now(data.size());
    sys.host->store().read(0x100080, host_now.data(), host_now.size());
    EXPECT_EQ(host_now, data);

    std::vector<std::uint8_t> back(data.size());
    bool read_done = false;
    init.read(0x80, back.data(), back.size(), [&](Tick) {
        read_done = true;
    });
    sys.eq->run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(back, data);
}

TEST(RdmaRnic, FunctionalAndFast)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    mem::MemoryController host("host.mem", eq, 64 << 20, 6,
                               platform::params::cpuDramConfig());
    NicDmaPath path(host, NicDmaPath::Config{});
    RdmaTarget target("target", eq, sw, path, RdmaTarget::Config{});
    RdmaInitiator init("init", eq, sw, 1, 0);

    const auto data = pattern(2048, 0x50);
    bool wrote = false;
    Tick w_at = 0;
    init.write(0x40, data.data(), data.size(), [&](Tick t) {
        wrote = true;
        w_at = t;
    });
    eq.run();
    ASSERT_TRUE(wrote);
    std::vector<std::uint8_t> back(data.size());
    host.store().read(0x40, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_LT(units::toMicros(w_at), 10.0); // small-op latency
}

TEST(RdmaLatencyShape, DramFasterThanEciHostForSmallOps)
{
    // The Fig 8 shape: FPGA-attached DRAM beats host memory over ECI
    // for small reads (no protocol round trips).
    auto measure = [&](bool dram) {
        platform::EnzianMachine::Config mcfg =
            platform::enzianDefaultConfig();
        mcfg.cpu_dram_bytes = 64ull << 20;
        mcfg.fpga_dram_bytes = 64ull << 20;
        platform::EnzianMachine m(mcfg);
        Switch sw("sw", m.eventq(), 2, switchConfig());
        DirectDramPath dpath(m.fpgaMem());
        EciHostPath hpath(m.fpgaRemote(), 0x0);
        MemoryPath &path =
            dram ? static_cast<MemoryPath &>(dpath) : hpath;
        RdmaTarget target("t", m.eventq(), sw, path,
                          RdmaTarget::Config{});
        RdmaInitiator init("i", m.eventq(), sw, 1, 0);
        std::vector<std::uint8_t> buf(128);
        Tick done_at = 0;
        bool done = false;
        init.read(0, buf.data(), buf.size(), [&](Tick t) {
            done = true;
            done_at = t;
        });
        m.eventq().run();
        EXPECT_TRUE(done);
        return done_at;
    };
    EXPECT_LT(measure(true), measure(false));
}

TEST(RdmaRecovery, ServeAtExpiryIsStale)
{
    // The target drops a request iff it gets to it at or after the
    // attempt's retry tick. On one queue the retry timer scheduled at
    // issue runs first at that tick, so a serve landing exactly on it
    // finds the attempt abandoned.
    constexpr double kProcNs = 1000.0;
    const Tick proc = units::ns(kProcNs);

    // Arrival tick of a header-only request frame issued at 0.
    Tick arrival = 0;
    {
        EventQueue eq;
        Switch sw("probe", eq, 2, switchConfig());
        sw.setEndpoint(0, [&](Tick t, Frame &&) { arrival = t; });
        sw.setEndpoint(1, [](Tick, Frame &&) {});
        sw.sendFrom(1, Frame{rdmaHeaderBytes, 0, {}});
        eq.run();
    }
    ASSERT_GT(arrival, 0u);

    struct Outcome
    {
        std::uint64_t stale, served, retries;
        std::vector<std::uint8_t> got;
    };
    const auto data = pattern(256, 0x40);
    // Run one read whose retry timer fires at serve + @p slack.
    auto run = [&](Tick slack) {
        const Tick timeout = arrival + proc + slack;
        double timeout_us = static_cast<double>(timeout) / 1e6;
        while (units::us(timeout_us) < timeout)
            timeout_us = std::nextafter(timeout_us, 1e9);
        EXPECT_EQ(units::us(timeout_us), timeout);

        EventQueue eq;
        Switch sw("sw", eq, 2, switchConfig());
        mem::MemoryController mc("fpga.mem", eq, 64 << 20, 4,
                                 platform::params::fpgaDramConfig());
        mc.store().write(0x2000, data.data(), data.size());
        DirectDramPath path(mc);
        RdmaTarget::Config tcfg;
        tcfg.request_proc_ns = kProcNs;
        RdmaTarget target("target", eq, sw, path, tcfg);
        RdmaInitiator init("init", eq, sw, 1, 0);
        init.enableRecovery(timeout_us);
        Outcome out{0, 0, 0, std::vector<std::uint8_t>(data.size())};
        bool done = false;
        init.read(0x2000, out.got.data(), out.got.size(),
                  [&](Tick) { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        out.stale = target.staleRequests();
        out.served = target.requestsServed();
        out.retries = init.retriesSent();
        return out;
    };

    const Outcome at = run(0);
    EXPECT_EQ(at.stale, 1u);
    EXPECT_EQ(at.retries, 1u);
    EXPECT_EQ(at.served, 1u);
    EXPECT_EQ(at.got, data);

    // One tick earlier and the first attempt is served (its response
    // still loses the race with the timer, so the retry is served too).
    const Outcome before = run(1);
    EXPECT_EQ(before.stale, 0u);
    EXPECT_EQ(before.served, 2u);
    EXPECT_EQ(before.got, data);
}

} // namespace
} // namespace enzian::net
