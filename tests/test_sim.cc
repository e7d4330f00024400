/**
 * @file
 * Unit tests for the event kernel and clock domains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "sim/clock_domain.hh"
#include "sim/delay_line.hh"
#include "sim/domain_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

namespace enzian {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&]() { order.push_back(3); });
    eq.schedule(100, [&]() { order.push_back(1); });
    eq.schedule(200, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSuppressesEvent)
{
    EventQueue eq;
    bool ran = false;
    const EventId id = eq.schedule(10, [&]() { ran = true; });
    eq.cancel(id);
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunUntilAdvancesTime)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(100, [&]() { ++count; });
    eq.schedule(500, [&]() { ++count; });
    EXPECT_EQ(eq.runUntil(200), 1u);
    EXPECT_EQ(eq.now(), 200u);
    EXPECT_EQ(count, 1);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.scheduleDelta(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, DeltaSchedulesRelativeToNow)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&]() {
        eq.scheduleDelta(25, [&]() { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 125u);
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "in the past");
}

TEST(EventQueue, CountsSchedulingActivity)
{
    EventQueue eq;
    eq.schedule(1, []() {});
    eq.schedule(2, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsScheduled(), 2u);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

// Regression: cancelling an id that already ran (or was never
// issued) used to leak into the lazy-cancellation set forever. A
// stale cancel must be an exact no-op: no accounting drift, no
// retained memory, and the queue stays fully usable.
TEST(EventQueue, StaleCancelIsExactNoOp)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, []() {});
    eq.run();
    EXPECT_TRUE(eq.empty());

    for (int i = 0; i < 1000; ++i)
        eq.cancel(id); // already executed
    eq.cancel(0);      // never a valid id
    eq.cancel(~EventId{0}); // never issued

    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingCount(), 0u);
    EXPECT_EQ(eq.heapSize(), 0u);
    EXPECT_EQ(eq.slotPoolSize(), 1u); // slot recycled, not duplicated

    // Double-cancel of a live event: second one is stale.
    bool ran = false;
    const EventId live = eq.schedule(20, [&]() { ran = true; });
    eq.cancel(live);
    eq.cancel(live);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.slotPoolSize(), 1u);
}

// Regression: with the old design, stale cancelled ids could make
// queue_.size() == cancelled_.size() coincide while a live event was
// still pending, so empty() reported true and run loops stopped
// early. empty() must track the live count exactly.
TEST(EventQueue, StaleCancelCannotFakeEmpty)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, []() {});
    eq.run();
    eq.cancel(a); // stale: on the old kernel this lingered forever

    bool ran = false;
    eq.schedule(20, [&]() { ran = true; });
    // Old kernel: one heap entry + one stale cancelled id -> "empty".
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.pendingCount(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(eq.empty());
}

// Cancel-mostly loads must not grow the heap without bound: stale
// nodes are compacted away once they dominate, and slots recycle
// through the free list.
TEST(EventQueue, CancelHeavySteadyStateMemory)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int round = 0; round < 50; ++round) {
        ids.clear();
        for (int i = 0; i < 1000; ++i)
            ids.push_back(eq.schedule(1000 + i, []() {}));
        for (const EventId id : ids)
            eq.cancel(id);
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.pendingCount(), 0u);
        // Compaction keeps cancelled residue bounded even though
        // nothing was ever popped.
        EXPECT_LE(eq.heapSize(), 128u);
    }
    // Slots are free-listed: 50k schedules reuse the same 1000 slots.
    EXPECT_LE(eq.slotPoolSize(), 1000u);
    EXPECT_EQ(eq.run(), 0u);
}

// Same-tick events run in schedule order, including when neighbors
// at the same tick are cancelled from outside or from a same-tick
// callback that runs earlier.
TEST(EventQueue, SameTickCancelNeighbors)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids(8);
    for (int i = 0; i < 8; ++i) {
        ids[static_cast<std::size_t>(i)] =
            eq.schedule(100, [&, i]() {
                order.push_back(i);
                if (i == 1)
                    eq.cancel(ids[2]); // same-tick later neighbor
            });
    }
    eq.cancel(ids[3]);
    eq.cancel(ids[6]);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 5, 7}));
    EXPECT_EQ(eq.now(), 100u);
}

// Closures bigger than the inline buffer take the heap fallback but
// behave identically.
TEST(EventQueue, LargeClosureFallsBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 42;
    std::uint64_t seen = 0;
    eq.schedule(1, [payload, &seen]() { seen = payload[15]; });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ReusableEventSelfReschedulesOnOneSlot)
{
    EventQueue eq;
    int fired = 0;
    Event ev;
    ev.init(eq, [&]() {
        if (++fired < 100)
            ev.scheduleDelta(10);
    }, "tick");
    ev.schedule(0);
    EXPECT_TRUE(ev.scheduled());
    eq.run();
    EXPECT_EQ(fired, 100);
    EXPECT_FALSE(ev.scheduled());
    // The whole periodic train used exactly one slot and the heap
    // never held more than that one occurrence.
    EXPECT_EQ(eq.slotPoolSize(), 1u);
    EXPECT_EQ(eq.now(), 990u);
    EXPECT_EQ(eq.eventsExecuted(), 100u);
}

TEST(EventQueue, ReusableEventRescheduleAndCancel)
{
    EventQueue eq;
    int fired = 0;
    Event ev(eq, [&]() { ++fired; }, "t");
    ev.schedule(100);
    ev.reschedule(200); // move, not duplicate
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 200u);

    ev.scheduleDelta(50);
    ev.cancel();
    ev.cancel(); // idle cancel is a no-op
    EXPECT_FALSE(ev.scheduled());
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 1);

    ev.reschedule(300); // reschedule from idle just arms
    eq.run();
    EXPECT_EQ(fired, 2);
}

// The callback may destroy the owning Event (and with it the slot);
// release is deferred until the callback returns.
TEST(EventQueue, EventOwnerDestroyedDuringDispatch)
{
    EventQueue eq;
    auto ev = std::make_unique<Event>();
    bool ran = false;
    ev->init(eq, [&]() {
        ran = true;
        ev.reset();
    }, "suicide");
    ev->schedule(10);
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(ev);
    // The slot was recycled after dispatch: a fresh one-shot reuses
    // it instead of growing the pool.
    eq.schedule(20, []() {});
    eq.run();
    EXPECT_EQ(eq.slotPoolSize(), 1u);
}

/**
 * Naive reference kernel for the fuzz test below: an ordered map
 * keyed by (tick, insertion sequence). Trivially correct, trivially
 * deterministic — the real kernel must match it event for event.
 */
class RefKernel
{
  public:
    Tick now() const { return now_; }

    void
    schedule(Tick when, std::uint64_t token)
    {
        pending_.emplace(std::make_pair(when, seq_++), token);
    }

    /** Cancel by token; stale cancels are naturally no-ops. */
    void
    cancel(std::uint64_t token)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->second == token) {
                pending_.erase(it);
                return;
            }
        }
    }

    bool
    runOne(std::vector<std::uint64_t> &out)
    {
        if (pending_.empty())
            return false;
        auto it = pending_.begin();
        now_ = it->first.first;
        out.push_back(it->second);
        pending_.erase(it);
        return true;
    }

    std::uint64_t
    runUntil(Tick limit, std::vector<std::uint64_t> &out)
    {
        std::uint64_t n = 0;
        while (!pending_.empty() &&
               pending_.begin()->first.first <= limit) {
            runOne(out);
            ++n;
        }
        now_ = limit;
        return n;
    }

  private:
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::map<std::pair<Tick, std::uint64_t>, std::uint64_t> pending_;
};

// Seeded fuzz: a random mix of schedule / cancel (live and stale) /
// runOne / runUntil must execute the exact same event order on the
// real kernel as on the naive reference model, with time in
// lockstep throughout.
TEST(EventQueue, FuzzMatchesNaiveReference)
{
    Rng rng(0xE21A0306);
    EventQueue eq;
    RefKernel ref;
    std::vector<std::uint64_t> got, want;
    std::vector<std::pair<std::uint64_t, EventId>> issued;
    std::uint64_t nextToken = 1;

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t pick = rng.below(100);
        if (pick < 55) {
            // Small deltas so same-tick ties are common.
            const Tick delta = rng.below(40);
            const std::uint64_t tok = nextToken++;
            const EventId id = eq.scheduleDelta(
                delta, [tok, &got]() { got.push_back(tok); });
            ref.schedule(ref.now() + delta, tok);
            issued.emplace_back(tok, id);
        } else if (pick < 70 && !issued.empty()) {
            // Cancel a random issued event: may be live, may be long
            // executed (stale) — both must agree across kernels.
            const auto &[tok, id] =
                issued[rng.below(issued.size())];
            eq.cancel(id);
            ref.cancel(tok);
        } else if (pick < 85) {
            const std::size_t mark = want.size();
            const bool a = eq.runOne();
            const bool b = ref.runOne(want);
            ASSERT_EQ(a, b);
            if (a) {
                ASSERT_EQ(got.back(), want[mark]);
            }
        } else {
            const Tick limit = eq.now() + rng.below(60);
            const std::uint64_t a = eq.runUntil(limit);
            const std::uint64_t b = ref.runUntil(limit, want);
            ASSERT_EQ(a, b);
            ASSERT_EQ(eq.now(), ref.now());
        }
    }

    // Drain both and compare the full execution history.
    eq.run();
    while (ref.runOne(want)) {
    }
    EXPECT_EQ(got, want);
    EXPECT_TRUE(eq.empty());
}

// Determinism across runs: the same seed must produce bitwise the
// same execution order twice — the kernel introduces no
// address-dependent or container-order-dependent tie-breaks.
TEST(EventQueue, FuzzIsReproducible)
{
    auto runOnce = [](std::uint64_t seed) {
        Rng rng(seed);
        EventQueue eq;
        std::vector<std::uint64_t> order;
        std::vector<EventId> ids;
        std::uint64_t tok = 0;
        for (int step = 0; step < 5000; ++step) {
            const std::uint64_t pick = rng.below(10);
            if (pick < 6) {
                const std::uint64_t t = tok++;
                ids.push_back(eq.scheduleDelta(
                    rng.below(25),
                    [t, &order]() { order.push_back(t); }));
            } else if (pick < 8 && !ids.empty()) {
                eq.cancel(ids[rng.below(ids.size())]);
            } else {
                eq.runOne();
            }
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(runOnce(7), runOnce(7));
    EXPECT_NE(runOnce(7), runOnce(8)); // and the seed matters
}

// A one-shot scheduled between two same-tick pushes runs between
// them, exactly as with one event per pushed item.
TEST(DelayLine, SameTickOneShotRunsBetweenPushes)
{
    EventQueue eq;
    std::vector<int> order;
    sim::DelayLine<int> line;
    line.init(eq, [&](Tick, int &&v) { order.push_back(v); }, "line");
    line.push(10, 1);
    eq.schedule(10, [&]() { order.push_back(2); });
    line.push(10, 3);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.eventsScheduled(), 3u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

// Seeded fuzz: pushes onto three lines mixed with one-shots, runOne
// and runUntil execute in the same order as the naive reference
// model given one event per pushed item.
TEST(DelayLine, FuzzMatchesNaiveReference)
{
    Rng rng(0xDE1A7);
    EventQueue eq;
    RefKernel ref;
    std::vector<std::uint64_t> got, want;
    std::array<sim::DelayLine<std::uint64_t>, 3> lines;
    std::array<Tick, 3> tails{};
    for (auto &line : lines) {
        line.init(eq, [&got, &eq](Tick when, std::uint64_t &&tok) {
            EXPECT_EQ(when, eq.now());
            got.push_back(tok);
        });
    }
    std::uint64_t nextToken = 1;
    std::uint64_t oneShotsPending = 0;

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t pick = rng.below(100);
        if (pick < 45) {
            // Small deltas so same-tick ties are common.
            const std::size_t l = rng.below(lines.size());
            const Tick when =
                std::max(tails[l], eq.now() + rng.below(40));
            const std::uint64_t tok = nextToken++;
            lines[l].push(when, std::uint64_t{tok});
            tails[l] = when;
            ref.schedule(when, tok);
        } else if (pick < 65) {
            const Tick delta = rng.below(40);
            const std::uint64_t tok = nextToken++;
            eq.scheduleDelta(delta, [tok, &got, &oneShotsPending]() {
                --oneShotsPending;
                got.push_back(tok);
            });
            ++oneShotsPending;
            ref.schedule(ref.now() + delta, tok);
        } else if (pick < 85) {
            const std::size_t mark = want.size();
            const bool a = eq.runOne();
            const bool b = ref.runOne(want);
            ASSERT_EQ(a, b);
            if (a) {
                ASSERT_EQ(got.back(), want[mark]);
            }
        } else {
            const Tick limit = eq.now() + rng.below(60);
            const std::uint64_t a = eq.runUntil(limit);
            const std::uint64_t b = ref.runUntil(limit, want);
            ASSERT_EQ(a, b);
            ASSERT_EQ(eq.now(), ref.now());
        }
        // At most one heap node per line, whatever it holds.
        ASSERT_LE(eq.heapSize(), oneShotsPending + lines.size());
    }

    eq.run();
    while (ref.runOne(want)) {
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(eq.eventsScheduled(), nextToken - 1);
    EXPECT_EQ(eq.eventsExecuted(), nextToken - 1);
    EXPECT_TRUE(eq.empty());
}

TEST(DelayLine, HoldsOneHeapNodeForManyItems)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> got;
    sim::DelayLine<int> line;
    line.init(eq, [&](Tick when, int &&v) { got.emplace_back(when, v); });
    constexpr int kItems = 1000;
    for (int i = 0; i < kItems; ++i)
        line.push(100 + static_cast<Tick>(i / 3), int{i});
    EXPECT_LE(eq.heapSize(), 1u);
    EXPECT_EQ(eq.pendingCount(), 1u);
    EXPECT_EQ(eq.eventsScheduled(), static_cast<std::uint64_t>(kItems));
    while (eq.runOne())
        ASSERT_LE(eq.heapSize(), 1u);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
        EXPECT_EQ(got[i].first, 100 + static_cast<Tick>(i / 3));
        EXPECT_EQ(got[i].second, i);
    }
    EXPECT_EQ(eq.eventsExecuted(), static_cast<std::uint64_t>(kItems));
    EXPECT_EQ(eq.slotPoolSize(), 1u);
}

// The deliver callback may push into its own line, both when that
// line has just gone empty and when it still holds items.
TEST(DelayLine, DeliverPushesIntoItsOwnLine)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> got;
    sim::DelayLine<int> line;
    line.init(eq, [&](Tick when, int &&v) {
        got.emplace_back(when, v);
        if (v == 1)
            line.push(when, 2); // line is empty here
        else if (v == 2)
            line.push(when + 10, 3);
        else if (v == 10)
            line.push(when, 11); // queues behind 20
    });
    line.push(5, 1);
    eq.run();
    line.push(100, 10);
    line.push(100, 20);
    eq.run();
    const std::vector<std::pair<Tick, int>> want{
        {5, 1}, {5, 2}, {15, 3}, {100, 10}, {100, 20}, {100, 11}};
    EXPECT_EQ(got, want);
    EXPECT_TRUE(eq.empty());
}

TEST(DelayLine, DestroyedWithItemsFreesItsSlot)
{
    EventQueue eq;
    int delivered = 0;
    auto line = std::make_unique<sim::DelayLine<int>>();
    line->init(eq, [&](Tick, int &&) { ++delivered; });
    line->push(10, 1);
    line->push(20, 2);
    line->push(20, 3);
    EXPECT_FALSE(eq.empty());
    line.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(delivered, 0);
    // The freed slot serves the next event.
    eq.schedule(30, []() {});
    eq.run();
    EXPECT_EQ(eq.slotPoolSize(), 1u);
}

TEST(DelayLineDeathTest, PushBeforeTailPanics)
{
    EventQueue eq;
    sim::DelayLine<int> line;
    line.init(eq, [](Tick, int &&) {});
    line.push(100, 1);
    EXPECT_DEATH(line.push(50, 2), "before its tail");
}

TEST(ClockDomain, PeriodAndConversions)
{
    ClockDomain clk("t", 1e9); // 1 GHz -> 1000 ps
    EXPECT_EQ(clk.period(), 1000u);
    EXPECT_EQ(clk.cyclesToTicks(5), 5000u);
    EXPECT_EQ(clk.ticksToCycles(5000), 5u);
    EXPECT_EQ(clk.ticksToCycles(5001), 6u); // rounds up
}

TEST(ClockDomain, FrequencyChange)
{
    ClockDomain clk("fpga", 200e6);
    EXPECT_EQ(clk.period(), 5000u);
    clk.setFrequencyHz(300e6);
    EXPECT_NEAR(static_cast<double>(clk.period()), 3333.0, 1.0);
}

TEST(ClockDomainDeathTest, ZeroFrequencyFatal)
{
    EXPECT_EXIT(ClockDomain("bad", 0.0),
                ::testing::ExitedWithCode(1), "frequency");
}

// The ENZIAN_THREADS parser, on strings only: no test starts a
// scheduler with whatever count a bad string would have produced.
TEST(EnvThreads, UnsetOrEmptyIsZeroAndPositiveDecimalsParse)
{
    EXPECT_EQ(sim::envThreads(nullptr), 0u);
    EXPECT_EQ(sim::envThreads(""), 0u);
    EXPECT_EQ(sim::envThreads("1"), 1u);
    EXPECT_EQ(sim::envThreads("4"), 4u);
    EXPECT_EQ(sim::envThreads("16"), 16u);
}

TEST(EnvThreadsDeathTest, AnythingElseIsFatal)
{
    for (const char *bad : {"-1", "abc", "3x", "0", " 4", "99999999999"})
        EXPECT_EXIT(sim::envThreads(bad),
                    ::testing::ExitedWithCode(1),
                    std::string("ENZIAN_THREADS='") + bad + "'")
            << bad;
}

TEST(SimObject, NameAndStats)
{
    EventQueue eq;
    SimObject obj("a.b.c", eq);
    EXPECT_EQ(obj.name(), "a.b.c");
    EXPECT_EQ(obj.stats().name(), "a.b.c");
    EXPECT_EQ(obj.now(), 0u);
}

} // namespace
} // namespace enzian
