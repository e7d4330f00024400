/**
 * @file
 * Unit and property tests for the MOESI cache.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>

#include "base/rng.hh"
#include "cache/cache.hh"
#include "cache/moesi.hh"

namespace enzian::cache {

// Names each state pair case after the states; gtest would otherwise
// print them as raw bytes.
void
PrintTo(MoesiState s, std::ostream *os)
{
    *os << toString(s);
}

namespace {

Cache::Config
smallConfig()
{
    Cache::Config cfg;
    cfg.size_bytes = 4 * 1024; // 32 lines
    cfg.ways = 4;              // 8 sets
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::uint8_t seed)
{
    std::vector<std::uint8_t> d(lineSize);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<std::uint8_t>(seed + i);
    return d;
}

TEST(Moesi, StatePredicates)
{
    EXPECT_FALSE(canRead(MoesiState::Invalid));
    EXPECT_TRUE(canRead(MoesiState::Shared));
    EXPECT_TRUE(canWrite(MoesiState::Modified));
    EXPECT_TRUE(canWrite(MoesiState::Exclusive));
    EXPECT_FALSE(canWrite(MoesiState::Shared));
    EXPECT_FALSE(canWrite(MoesiState::Owned));
    EXPECT_TRUE(isDirty(MoesiState::Modified));
    EXPECT_TRUE(isDirty(MoesiState::Owned));
    EXPECT_FALSE(isDirty(MoesiState::Exclusive));
}

/** Property sweep: the full pairwise MOESI compatibility matrix. */
class MoesiCompatTest
    : public ::testing::TestWithParam<
          std::tuple<MoesiState, MoesiState>>
{
};

TEST_P(MoesiCompatTest, MatrixIsSymmetricAndSound)
{
    const auto [a, b] = GetParam();
    EXPECT_EQ(compatible(a, b), compatible(b, a));
    // Never two concurrent writers, never a writer beside a reader.
    if (canWrite(a) && b != MoesiState::Invalid) {
        EXPECT_FALSE(compatible(a, b));
    }
    // Invalid coexists with everything.
    if (a == MoesiState::Invalid) {
        EXPECT_TRUE(compatible(a, b));
    }
    // S+S and O+S are legal.
    if (a == MoesiState::Shared && b == MoesiState::Shared) {
        EXPECT_TRUE(compatible(a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MoesiCompatTest,
    ::testing::Combine(
        ::testing::Values(MoesiState::Invalid, MoesiState::Shared,
                          MoesiState::Exclusive, MoesiState::Owned,
                          MoesiState::Modified),
        ::testing::Values(MoesiState::Invalid, MoesiState::Shared,
                          MoesiState::Exclusive, MoesiState::Owned,
                          MoesiState::Modified)));

TEST(Moesi, LineAlignment)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(127), 0u);
    EXPECT_EQ(lineAlign(128), 128u);
    EXPECT_TRUE(isLineAligned(256));
    EXPECT_FALSE(isLineAligned(257));
}

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_EQ(c.misses(), 1u);
    c.fill(0x1000, MoesiState::Shared, pattern(1).data());
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, DataRoundTrip)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    const auto d = pattern(9);
    c.fill(0x2000, MoesiState::Exclusive, d.data());
    const LineHandle line = c.lookup(0x2000 + 16);
    ASSERT_TRUE(line);
    EXPECT_EQ(line.state(), MoesiState::Exclusive);
    EXPECT_EQ(std::memcmp(line.data(), d.data(), lineSize), 0);

    const std::uint32_t word = 0xabcd1234;
    std::memcpy(line.data() + 16, &word, sizeof(word));
    std::uint32_t got = 0;
    std::memcpy(&got, c.lookup(0x2000).data() + 16, sizeof(got));
    EXPECT_EQ(got, word);
    EXPECT_EQ(c.hits(), 0u); // lookup() has no side effects
}

TEST(Cache, LruEvictsColdestWay)
{
    EventQueue eq;
    Cache::Config cfg = smallConfig(); // 8 sets x 4 ways
    Cache c("l2", eq, cfg);
    // Four lines mapping to set 0 (stride = sets * lineSize = 1024).
    const Addr stride = c.sets() * lineSize;
    for (Addr i = 0; i < 4; ++i)
        c.fill(i * stride, MoesiState::Shared, pattern(0).data());
    // Touch line 0 so line 1 becomes the LRU victim.
    c.access(0);
    auto ev = c.fill(4 * stride, MoesiState::Shared, pattern(0).data());
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->addr, stride);
}

TEST(Cache, DirtyEvictionCarriesData)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    const Addr stride = c.sets() * lineSize;
    const auto d = pattern(5);
    c.fill(0, MoesiState::Modified, d.data());
    for (Addr i = 1; i <= 4; ++i) {
        auto ev = c.fill(i * stride, MoesiState::Shared,
                         pattern(0).data());
        if (ev) {
            EXPECT_EQ(ev->addr, 0u);
            EXPECT_EQ(ev->state, MoesiState::Modified);
            EXPECT_EQ(std::memcmp(ev->data.data(), d.data(), lineSize),
                      0);
            return;
        }
    }
    FAIL() << "expected an eviction";
}

TEST(Cache, InvalidateReturnsDirtyDataOnly)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    c.fill(0x100, MoesiState::Shared, pattern(1).data());
    EXPECT_FALSE(c.invalidate(0x100).has_value());
    EXPECT_EQ(c.probe(0x100), MoesiState::Invalid);

    c.fill(0x200, MoesiState::Modified, pattern(2).data());
    auto ev = c.invalidate(0x200);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->state, MoesiState::Modified);
}

TEST(Cache, SetStateTransitions)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    c.fill(0x300, MoesiState::Exclusive, pattern(3).data());
    c.lookup(0x300).setState(MoesiState::Owned);
    EXPECT_EQ(c.probe(0x300), MoesiState::Owned);
    c.lookup(0x300).setState(MoesiState::Invalid);
    EXPECT_EQ(c.probe(0x300), MoesiState::Invalid);
    EXPECT_FALSE(c.lookup(0x300));
}

TEST(Cache, ForEachLineVisitsAllValid)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    c.fill(0x000, MoesiState::Shared, pattern(0).data());
    c.fill(0x480, MoesiState::Modified, pattern(1).data());
    std::set<Addr> seen;
    c.forEachLine([&](Addr a, MoesiState) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<Addr>{0x000, 0x480}));
}

TEST(Cache, RefillUpdatesExistingLine)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    c.fill(0x500, MoesiState::Shared, pattern(1).data());
    auto ev = c.fill(0x500, MoesiState::Exclusive, pattern(2).data());
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.probe(0x500), MoesiState::Exclusive);
    EXPECT_EQ(c.lookup(0x500).data()[0], 2);
}

TEST(CacheDeathTest, BadGeometryFatal)
{
    EventQueue eq;
    Cache::Config cfg;
    cfg.size_bytes = 1000; // not divisible by ways*lineSize
    cfg.ways = 4;
    EXPECT_EXIT(Cache("bad", eq, cfg), ::testing::ExitedWithCode(1),
                "divisible");
}

// ---------------------------------------------------------------------
// LLC way-partitioning policies (llc_policy.hh).
// ---------------------------------------------------------------------

TEST(LlcPolicy, WayPartitionIsolatesOwners)
{
    EventQueue eq;
    Cache::Config cfg = smallConfig(); // 4 ways, 8 sets
    cfg.policy = ReplPolicy::WayPartition;
    Cache c("l2", eq, cfg);
    // Two local lines fill owner 0's half of set 0 (set stride is
    // 8 * 128 = 0x400 in this geometry).
    c.fill(0x0000, MoesiState::Modified, pattern(1).data(),
           ownerLocal);
    c.fill(0x0400, MoesiState::Modified, pattern(2).data(),
           ownerLocal);
    // A remote stream through the same set thrashes only its own
    // two ways; the local working set survives untouched.
    for (Addr i = 0; i < 16; ++i) {
        c.fill(0x0800 + i * 0x400, MoesiState::Shared,
               pattern(3).data(), ownerRemote);
    }
    EXPECT_EQ(c.probe(0x0000), MoesiState::Modified);
    EXPECT_EQ(c.probe(0x0400), MoesiState::Modified);
    EXPECT_GE(c.evictions(), 14u); // the remote stream self-evicted
}

TEST(LlcPolicy, LookupsAndRefillsCrossThePartition)
{
    EventQueue eq;
    Cache::Config cfg = smallConfig();
    cfg.policy = ReplPolicy::WayPartition;
    Cache c("l2", eq, cfg);
    c.fill(0x1000, MoesiState::Shared, pattern(1).data(), ownerLocal);
    // A foreign owner still hits, and a re-fill over a resident line
    // updates in place regardless of who owns the way.
    EXPECT_TRUE(c.access(0x1000));
    auto ev = c.fill(0x1000, MoesiState::Exclusive, pattern(2).data(),
                     ownerRemote);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.probe(0x1000), MoesiState::Exclusive);
}

TEST(LlcPolicy, AdaptiveMigratesWaysTowardPressure)
{
    WayAllocator::Config acfg;
    acfg.ways = 4;
    acfg.partitions = 2;
    acfg.policy = ReplPolicy::Adaptive;
    acfg.adapt_epoch = 8;
    WayAllocator a(acfg);
    EXPECT_EQ(a.waysOf(0), 2u);
    EXPECT_EQ(a.waysOf(1), 2u);
    // One epoch of pure owner-1 pressure moves one way across.
    for (int i = 0; i < 8; ++i)
        a.recordMiss(1);
    EXPECT_EQ(a.waysOf(1), 3u);
    EXPECT_EQ(a.waysOf(0), 1u);
    EXPECT_EQ(a.rebalances(), 1u);
}

TEST(LlcPolicy, AdaptiveNeverStarvesAnOwner)
{
    WayAllocator::Config acfg;
    acfg.ways = 4;
    acfg.partitions = 2;
    acfg.policy = ReplPolicy::Adaptive;
    acfg.adapt_epoch = 8;
    WayAllocator a(acfg);
    // However one-sided the load, the loser keeps one way.
    for (int i = 0; i < 8 * 16; ++i)
        a.recordMiss(1);
    EXPECT_EQ(a.waysOf(0), 1u);
    EXPECT_EQ(a.waysOf(1), 3u);
}

TEST(LlcPolicy, AdaptiveDriftsBackToEvenSplit)
{
    WayAllocator::Config acfg;
    acfg.ways = 4;
    acfg.partitions = 2;
    acfg.policy = ReplPolicy::Adaptive;
    acfg.adapt_epoch = 8;
    WayAllocator a(acfg);
    for (int i = 0; i < 8; ++i) // skew toward owner 1
        a.recordMiss(1);
    ASSERT_EQ(a.waysOf(1), 3u);
    // Symmetric misses: per-way pressure is now higher for owner 0
    // (fewer ways), so the split converges back to even and stays.
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 4; ++i) {
            a.recordMiss(0);
            a.recordMiss(1);
        }
    }
    EXPECT_EQ(a.waysOf(0), 2u);
    EXPECT_EQ(a.waysOf(1), 2u);
}

TEST(LlcPolicy, CacheUnderAdaptivePolicyRepartitions)
{
    EventQueue eq;
    Cache::Config cfg = smallConfig();
    cfg.policy = ReplPolicy::Adaptive;
    cfg.adapt_epoch = 16;
    Cache c("l2", eq, cfg);
    ASSERT_NE(c.allocator(), nullptr);
    // A pure remote streaming load grows the remote share.
    for (Addr i = 0; i < 64; ++i) {
        c.fill(0x10000 + i * 0x400, MoesiState::Shared,
               pattern(4).data(), ownerRemote);
    }
    EXPECT_EQ(c.allocator()->waysOf(ownerRemote), 3u);
    EXPECT_EQ(c.allocator()->waysOf(ownerLocal), 1u);
    EXPECT_GE(c.allocator()->rebalances(), 1u);
}

// ---------------------------------------------------------------------
// Lazily allocated sets: frames exist only for sets a fill touched.
// ---------------------------------------------------------------------

TEST(CacheLazySets, FreshCacheMissesAtFirstAndLastSet)
{
    EventQueue eq;
    Cache c("l2", eq, Cache::Config{}); // 16 MiB, 8192 sets
    std::size_t visited = 0;
    c.forEachLine([&](Addr, MoesiState) { ++visited; });
    EXPECT_EQ(visited, 0u);
    const Addr last = Addr{c.sets() - 1} * lineSize;
    for (const Addr a : {Addr{0}, last}) {
        EXPECT_EQ(c.probe(a), MoesiState::Invalid);
        EXPECT_FALSE(c.access(a));
    }
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.allocatedSets(), 0u);
}

TEST(CacheLazySets, UntouchedSetHasFreeFrameForEveryOwner)
{
    for (const ReplPolicy policy : {ReplPolicy::Lru, ReplPolicy::WayPartition,
                                    ReplPolicy::Adaptive}) {
        EventQueue eq;
        Cache::Config cfg = smallConfig();
        cfg.policy = policy;
        Cache c("l2", eq, cfg);
        for (const std::uint32_t owner : {ownerLocal, ownerRemote}) {
            EXPECT_TRUE(c.hasFreeFrame(0x1000, owner))
                << toString(policy) << " owner " << owner;
        }
        EXPECT_EQ(c.allocatedSets(), 0u);
    }
}

TEST(CacheLazySets, EvictionKeepsVictimBytesOfTheReusedFrame)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig()); // 8 sets x 4 ways
    const Addr stride = c.sets() * lineSize;
    for (Addr i = 0; i < c.ways(); ++i) {
        c.fill(i * stride, MoesiState::Modified,
               pattern(static_cast<std::uint8_t>(10 + i)).data());
    }
    // Line 0 is the LRU victim; the same call writes the new line's
    // bytes into the frame it vacated.
    const Addr fresh_line = c.ways() * stride;
    const auto fresh = pattern(200);
    auto ev = c.fill(fresh_line, MoesiState::Modified, fresh.data());
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->addr, 0u);
    EXPECT_EQ(std::memcmp(ev->data.data(), pattern(10).data(), lineSize),
              0);
    EXPECT_EQ(
        std::memcmp(c.lookup(fresh_line).data(), fresh.data(), lineSize),
        0);
}

TEST(CacheLazySets, RefillAfterInvalidateReadsNewBytes)
{
    EventQueue eq;
    Cache c("l2", eq, smallConfig());
    c.fill(0x600, MoesiState::Modified, pattern(1).data());
    ASSERT_TRUE(c.invalidate(0x600).has_value());
    const auto fresh = pattern(77);
    c.fill(0x600, MoesiState::Shared, fresh.data());
    EXPECT_EQ(std::memcmp(c.lookup(0x600).data(), fresh.data(), lineSize),
              0);

    // Invalid ways keep stale bytes; a data-less fill zeroes them.
    c.lookup(0x600).setState(MoesiState::Invalid);
    c.fill(0x600, MoesiState::Exclusive, nullptr);
    const std::uint8_t zeros[lineSize] = {};
    EXPECT_EQ(std::memcmp(c.lookup(0x600).data(), zeros, lineSize), 0);
}

TEST(CacheLazySets, ForEachLineRebuildsAddressesInFirstAndLastSet)
{
    EventQueue eq;
    Cache c("l2", eq, Cache::Config{});
    const Addr stride = Addr{c.sets()} * lineSize; // one way's span
    const Addr last_set = stride - lineSize;
    const std::set<Addr> lines{0, 5 * stride, last_set,
                               3 * stride + last_set};
    for (const Addr a : lines)
        c.fill(a, MoesiState::Shared, pattern(1).data());
    EXPECT_EQ(c.allocatedSets(), 2u);
    std::set<Addr> seen;
    c.forEachLine([&](Addr a, MoesiState) { seen.insert(a); });
    EXPECT_EQ(seen, lines);
}

// ---------------------------------------------------------------------
// Replacement decisions: a seeded operation mix, hashed end to end.
// ---------------------------------------------------------------------

/** FNV-1a over every observable outcome of the mix. */
class OutcomeHash
{
  public:
    void add(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
    template <typename T>
    void add(const T &v)
    {
        add(&v, sizeof(v));
    }
    void add(const std::optional<Eviction> &ev)
    {
        add(ev.has_value());
        if (ev) {
            add(ev->addr);
            add(ev->state);
            add(ev->data.data(), lineSize);
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Drive @p ops random fill/access/probe/invalidate/setState/
 * hasFreeFrame calls and line reads over 64 lines of an 8-set x 4-way
 * cache and hash every victim, state, byte and lookup result.
 */
std::uint64_t
replacementMixHash(ReplPolicy policy, std::uint64_t seed, int ops)
{
    EventQueue eq;
    Cache::Config cfg = smallConfig();
    cfg.policy = policy;
    cfg.adapt_epoch = 16;
    Cache c("l2", eq, cfg);
    Rng rng(seed);
    OutcomeHash h;
    const MoesiState valid[] = {MoesiState::Shared, MoesiState::Exclusive,
                                MoesiState::Owned, MoesiState::Modified};
    std::uint8_t bytes[lineSize];
    for (int i = 0; i < ops; ++i) {
        const Addr line = rng.below(64) * lineSize;
        const std::uint32_t owner = static_cast<std::uint32_t>(rng.below(2));
        switch (rng.below(8)) {
          case 0:
          case 1: {
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng.next());
            const bool with_data = rng.below(4) != 0;
            h.add(c.fill(line, valid[rng.below(4)],
                         with_data ? bytes : nullptr, owner));
            break;
          }
          case 2:
            h.add(static_cast<bool>(c.access(line)));
            break;
          case 3:
            h.add(c.probe(line));
            break;
          case 4:
            h.add(c.invalidate(line));
            break;
          case 5:
            if (const LineHandle held = c.lookup(line)) {
                const std::uint64_t pick = rng.below(5);
                held.setState(pick == 4 ? MoesiState::Invalid
                                        : valid[pick]);
            }
            break;
          case 6:
            h.add(c.hasFreeFrame(line, owner));
            break;
          case 7:
            if (const LineHandle held = c.lookup(line))
                h.add(held.data(), lineSize);
            break;
        }
    }
    h.add(c.hits());
    h.add(c.misses());
    h.add(c.evictions());
    return h.value();
}

TEST(CacheReplacement, SeededMixMatchesPinnedOutcomes)
{
    // Pinned from the frame-per-way layout the dense arrays replaced:
    // any change in victim choice, state or bytes moves these.
    EXPECT_EQ(replacementMixHash(ReplPolicy::Lru, 1, 20000),
              0x7f01bac1eae544ddull);
    EXPECT_EQ(replacementMixHash(ReplPolicy::WayPartition, 2, 20000),
              0x2188ff60bd670818ull);
    EXPECT_EQ(replacementMixHash(ReplPolicy::Adaptive, 3, 20000),
              0x3d1251e460d7fbd2ull);
}

} // namespace
} // namespace enzian::cache
