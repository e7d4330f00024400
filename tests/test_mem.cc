/**
 * @file
 * Unit tests for the memory substrate.
 */

#include <gtest/gtest.h>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/dram_channel.hh"
#include "mem/memory_controller.hh"

namespace enzian::mem {
namespace {

TEST(BackingStore, ReadsZeroBeforeWrite)
{
    BackingStore s(1 << 20);
    std::uint8_t buf[16];
    s.read(4096, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(s.pagesAllocated(), 0u);
}

TEST(BackingStore, RoundTripAcrossPageBoundary)
{
    BackingStore s(1 << 20);
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    const Addr addr = BackingStore::pageSize - 100;
    s.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    s.read(addr, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_GE(s.pagesAllocated(), 3u);
}

TEST(BackingStore, TypedAccessors)
{
    BackingStore s(1 << 16);
    s.store<std::uint64_t>(8, 0xdeadbeefcafef00dull);
    EXPECT_EQ(s.load<std::uint64_t>(8), 0xdeadbeefcafef00dull);
    EXPECT_EQ(s.load<std::uint32_t>(8), 0xcafef00du);
}

TEST(BackingStore, FillPattern)
{
    BackingStore s(1 << 16);
    s.fill(100, 0xab, 5000);
    EXPECT_EQ(s.load<std::uint8_t>(100), 0xab);
    EXPECT_EQ(s.load<std::uint8_t>(5099), 0xab);
    EXPECT_EQ(s.load<std::uint8_t>(5100), 0x00);
}

TEST(BackingStore, SparseFootprint)
{
    BackingStore s(1ull << 40); // 1 TiB addressable
    s.store<std::uint64_t>(512ull << 30, 1); // touch one page
    EXPECT_EQ(s.pagesAllocated(), 1u);
    // One radix path from the root: four 4 KiB nodes cover 1 TiB.
    EXPECT_LE(s.nodesAllocated(), 4u);
    EXPECT_EQ(s.load<std::uint64_t>(512ull << 30), 1u);
}

/** Write a counting pattern across @p addr and read it back. */
void
expectRoundTrip(BackingStore &s, Addr addr, std::size_t len,
                std::uint8_t seed)
{
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i)
        data[i] = static_cast<std::uint8_t>(seed + i * 3);
    s.write(addr, data.data(), len);
    std::vector<std::uint8_t> back(len);
    s.read(addr, back.data(), len);
    EXPECT_EQ(data, back) << "at " << addr;
}

TEST(BackingStore, RoundTripsAcrossPageLeafAndTopBoundaries)
{
    // 3 GiB: three levels of nodes. A leaf node spans 2 MiB of pages;
    // each root child spans 1 GiB.
    BackingStore s(3ull << 30);
    const Addr page = BackingStore::pageSize;
    const Addr leaf = 512 * page;
    const Addr top = 512 * leaf;
    expectRoundTrip(s, page - 64, 128, 1);
    expectRoundTrip(s, 5 * leaf - 100, 300, 2);
    expectRoundTrip(s, top - 200, 400, 3);
    expectRoundTrip(s, 2 * top - page - 8, 2 * page + 16, 4);
    // Each straddle touched two pages, the last one four.
    EXPECT_EQ(s.pagesAllocated(), 2u + 2u + 2u + 4u);
}

TEST(BackingStore, LastByteOfAnOddSizedStore)
{
    // Not a multiple of a page, a leaf span or a root-child span.
    const std::uint64_t size = (2ull << 30) + 3 * 4096 + 17;
    BackingStore s(size);
    s.store<std::uint8_t>(size - 1, 0x5c);
    EXPECT_EQ(s.load<std::uint8_t>(size - 1), 0x5c);
    EXPECT_EQ(s.load<std::uint8_t>(size - 2), 0);
    EXPECT_EQ(s.pagesAllocated(), 1u);
    expectRoundTrip(s, size - 5000, 5000, 9);
}

TEST(BackingStore, UntouchedRangesReadZero)
{
    BackingStore s(4ull << 30);
    s.fill(3 * 4096, 0xff, 4096); // one page, mid leaf node
    // Reads over the pages beside the touched one, and across an
    // untouched leaf-node and root-child boundary, come back zero.
    const Addr from = 0;
    const std::size_t len = 4 * 4096;
    std::vector<std::uint8_t> buf(len, 0xaa);
    s.read(from, buf.data(), len);
    for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(buf[i], i >= 3 * 4096 ? 0xff : 0) << i;
    std::vector<std::uint8_t> far(8192, 0xaa);
    s.read((1ull << 30) - 4096, far.data(), far.size());
    for (const std::uint8_t b : far)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(s.pagesAllocated(), 1u);
}

TEST(BackingStore, PagesAllocatedCountsPagesOnly)
{
    BackingStore s(4ull << 30);
    EXPECT_EQ(s.pagesAllocated(), 0u);
    EXPECT_EQ(s.nodesAllocated(), 1u); // the root
    // Two pages under two different root children: each brings its
    // own middle and leaf node, but only pages are counted.
    s.store<std::uint32_t>(0, 1);
    s.store<std::uint32_t>(3ull << 30, 2);
    EXPECT_EQ(s.pagesAllocated(), 2u);
    EXPECT_EQ(s.nodesAllocated(), 5u);
    // A second page under an existing leaf node adds no node.
    s.store<std::uint32_t>(4096, 3);
    EXPECT_EQ(s.pagesAllocated(), 3u);
    EXPECT_EQ(s.nodesAllocated(), 5u);
}

TEST(BackingStoreDeathTest, OutOfRangePanics)
{
    BackingStore s(4096);
    std::uint8_t b = 0;
    EXPECT_DEATH(s.read(4096, &b, 1), "beyond");
    EXPECT_DEATH(s.write(4090, &b, 100), "beyond");
}

TEST(MemoryController, DisjointReservationsCoexist)
{
    EventQueue eq;
    MemoryController mc("mc", eq, 1ull << 20, 1, DramChannel::Config{});
    mc.reserve(0, 4096, "a");
    mc.reserve(4096, 4096, "b"); // adjacent, not overlapping
    mc.reserve(1ull << 19, 0, "empty");
    mc.reserve(1ull << 19, 64, "c");
}

TEST(MemoryControllerDeathTest, OverlappingReservationIsFatal)
{
    EventQueue eq;
    MemoryController mc("mc", eq, 1ull << 20, 1, DramChannel::Config{});
    mc.reserve(0x1000, 0x1000, "first");
    EXPECT_EXIT(mc.reserve(0x1fc0, 0x80, "second"),
                ::testing::ExitedWithCode(1),
                "memory 'mc': 'second' \\[0x1fc0, 0x2040\\) overlaps "
                "'first' \\[0x1000, 0x2000\\)");
    EXPECT_EXIT(mc.reserve(0, 0x10000, "outer"),
                ::testing::ExitedWithCode(1), "'outer'.*'first'");
}

TEST(AddressMap, ClassifiesRegions)
{
    AddressMap m(1ull << 30, 1ull << 30);
    EXPECT_EQ(m.classify(0), RegionKind::CpuDram);
    EXPECT_EQ(m.classify((1ull << 30) - 1), RegionKind::CpuDram);
    EXPECT_EQ(m.classify(AddressMap::fpgaDramBase),
              RegionKind::FpgaDram);
    EXPECT_EQ(m.classify(AddressMap::cpuIoBase + 8), RegionKind::CpuIo);
    EXPECT_EQ(m.classify(AddressMap::fpgaIoBase), RegionKind::FpgaIo);
}

TEST(AddressMap, HomeNodes)
{
    AddressMap m(1ull << 30, 1ull << 30);
    EXPECT_EQ(m.homeOf(100), NodeId::Cpu);
    EXPECT_EQ(m.homeOf(AddressMap::fpgaDramBase + 100), NodeId::Fpga);
}

TEST(AddressMap, OffsetsInRegion)
{
    AddressMap m(1ull << 30, 1ull << 30);
    EXPECT_EQ(m.offsetInRegion(1234), 1234u);
    EXPECT_EQ(m.offsetInRegion(AddressMap::fpgaDramBase + 77), 77u);
}

TEST(AddressMap, ContainsRejectsHoles)
{
    AddressMap m(1ull << 20, 1ull << 20);
    EXPECT_TRUE(m.contains(0));
    EXPECT_FALSE(m.contains(1ull << 21)); // between CPU DRAM and FPGA
    EXPECT_FALSE(m.contains((1ull << 40) + (1ull << 21)));
}

TEST(AddressMapDeathTest, UnmappedFatal)
{
    AddressMap m(1ull << 20, 1ull << 20);
    EXPECT_EXIT(m.classify(1ull << 30), ::testing::ExitedWithCode(1),
                "unmapped");
}

TEST(DramChannel, BandwidthSetsStreamTime)
{
    EventQueue eq;
    DramChannel::Config cfg;
    cfg.mega_transfers = 2400;
    cfg.bus_bytes = 8;
    cfg.efficiency = 1.0;
    cfg.access_latency_ns = 0.0;
    DramChannel ch("ch", eq, cfg);
    // 19.2 GB/s; 19200 bytes should take ~1 us.
    const Tick done = ch.access(0, 19200);
    EXPECT_NEAR(units::toMicros(done), 1.0, 0.01);
}

TEST(DramChannel, BackToBackQueues)
{
    EventQueue eq;
    DramChannel::Config cfg;
    cfg.access_latency_ns = 40.0;
    DramChannel ch("ch", eq, cfg);
    const Tick first = ch.access(0, 1 << 20);
    const Tick second = ch.access(0, 1 << 20);
    EXPECT_GT(second, first);
    // Second waits for the first's bus occupancy.
    EXPECT_NEAR(static_cast<double>(second - units::ns(40)),
                2.0 * static_cast<double>(first - units::ns(40)),
                static_cast<double>(first) * 0.01);
}

TEST(DramSystem, StripesLargeAccesses)
{
    EventQueue eq;
    DramChannel::Config cfg;
    cfg.access_latency_ns = 0.0;
    cfg.efficiency = 1.0;
    DramSystem one("m1", eq, 1, cfg);
    DramSystem four("m4", eq, 4, cfg);
    const Tick t1 = one.access(0, 1 << 20);
    const Tick t4 = four.access(0, 1 << 20);
    EXPECT_NEAR(static_cast<double>(t1) / static_cast<double>(t4), 4.0,
                0.1);
}

TEST(DramSystem, AggregateBandwidth)
{
    EventQueue eq;
    DramChannel::Config cfg;
    DramSystem sys("m", eq, 4, cfg);
    EXPECT_NEAR(sys.effectiveBandwidth(),
                4 * sys.channel(0).effectiveBandwidth(), 1.0);
}

TEST(MemoryController, FunctionalAndTimed)
{
    EventQueue eq;
    MemoryController mc("mc", eq, 1 << 20, 2,
                        DramChannel::Config{});
    const char msg[] = "hello enzian";
    const Tick wt = mc.write(0, 256, msg, sizeof(msg)).done;
    EXPECT_GT(wt, 0u);
    char back[sizeof(msg)] = {};
    const Tick rt = mc.read(wt, 256, back, sizeof(back)).done;
    EXPECT_GT(rt, wt);
    EXPECT_STREQ(back, msg);
}

} // namespace
} // namespace enzian::mem
