/**
 * @file
 * Pure event-kernel throughput: how many events per second the DES
 * kernel can schedule, dispatch and cancel, with no model attached.
 *
 * Every reproduced figure runs through sim::EventQueue, so dispatch
 * cost is the floor on simulator speed. Three mixes:
 *
 *  - dispatch: N periodic actors, each handler re-arms itself (the
 *    link-pacing / TCP-pump / scheduler-slice shape). This is the
 *    hot-path mix the kernel is optimized for.
 *  - oneshot: schedule-then-drain batches of fresh lambdas at random
 *    offsets (the request/response shape of the protocol agents).
 *  - cancel: schedule batches, cancel half before they run (timeout
 *    shape), drain the rest; includes stale cancels of already-run
 *    ids, which must be no-ops.
 *
 * Emits BENCH_kernel_events.json via bench_common.hh; CI guards
 * events-per-second against bench/baselines/kernel_events_floor.json.
 */

#include "bench_common.hh"

#include <chrono>

#include "base/rng.hh"

using namespace enzian;
using namespace enzian::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Dispatch-heavy mix: @p actors periodic self-rescheduling reusable
 * events (the link-pacing / TCP-pump shape after the kernel
 * overhaul), run until @p total dispatches.
 */
double
runDispatchMix(std::uint64_t actors, std::uint64_t total)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<Event>> evs;
    evs.reserve(actors);
    for (std::uint64_t i = 0; i < actors; ++i) {
        auto ev = std::make_unique<Event>();
        Event *self = ev.get();
        ev->init(
            eq,
            [&fired, total, self, i]() {
                if (++fired < total)
                    self->scheduleDelta(100 + (i % 7));
            },
            "bench-actor");
        ev->schedule(i % 97);
        evs.push_back(std::move(ev));
    }
    const auto t0 = std::chrono::steady_clock::now();
    eq.run();
    const double secs = secondsSince(t0);
    if (fired < total)
        fatal("dispatch mix fired %llu of %llu",
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(total));
    return static_cast<double>(fired) / secs;
}

/**
 * The same mix with a fresh function object copied into the queue per
 * occurrence instead of a reusable Event.
 */
double
runDispatchLambdaMix(std::uint64_t actors, std::uint64_t total)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<std::function<void()>> handlers(actors);
    for (std::uint64_t i = 0; i < actors; ++i) {
        handlers[i] = [&eq, &fired, &handlers, total, i]() {
            if (++fired < total)
                eq.scheduleDelta(100 + (i % 7), handlers[i]);
        };
    }
    for (std::uint64_t i = 0; i < actors; ++i)
        eq.schedule(i % 97, handlers[i]);
    const auto t0 = std::chrono::steady_clock::now();
    eq.run();
    const double secs = secondsSince(t0);
    if (fired < total)
        fatal("dispatch mix fired %llu of %llu",
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(total));
    return static_cast<double>(fired) / secs;
}

/** One-shot mix: batches of fresh lambdas at seeded random offsets. */
double
runOneshotMix(std::uint64_t batch, std::uint64_t rounds)
{
    EventQueue eq;
    Rng rng(42);
    std::uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::uint64_t i = 0; i < batch; ++i) {
            eq.scheduleDelta(rng.below(1000),
                             [&fired]() { ++fired; }, "bench-oneshot");
        }
        eq.run();
    }
    const double secs = secondsSince(t0);
    if (fired != batch * rounds)
        fatal("oneshot mix fired %llu of %llu",
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(batch * rounds));
    return static_cast<double>(fired) / secs;
}

/**
 * Cancel mix: schedule a batch, cancel every other event (plus a
 * stale cancel of an already-executed id), drain the remainder.
 * Counts scheduled events per second (work = schedule + cancel +
 * dispatch of survivors).
 */
double
runCancelMix(std::uint64_t batch, std::uint64_t rounds)
{
    EventQueue eq;
    Rng rng(1337);
    std::uint64_t fired = 0;
    std::vector<EventId> ids(batch);
    EventId stale = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::uint64_t i = 0; i < batch; ++i) {
            ids[i] = eq.scheduleDelta(rng.below(1000),
                                      [&fired]() { ++fired; },
                                      "bench-cancel");
        }
        for (std::uint64_t i = 0; i < batch; i += 2)
            eq.cancel(ids[i]);
        if (stale)
            eq.cancel(stale); // already executed: must be a no-op
        eq.run();
        stale = ids[1];
    }
    const double secs = secondsSince(t0);
    if (fired != batch / 2 * rounds)
        fatal("cancel mix fired %llu, expected %llu",
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(batch / 2 * rounds));
    return static_cast<double>(batch * rounds) / secs;
}

} // namespace

int
main()
{
    header("Event kernel throughput (no model attached)");
    BenchReport rep("kernel_events");

    // Best of kReps per mix. 64 actors is the representative
    // live-event set (the fig06/07 benches keep tens of events in
    // flight); 1024 is a stress point where heap depth dominates.
    constexpr int kReps = 3;
    constexpr std::uint64_t kActorsTypical = 64;
    constexpr std::uint64_t kActorsStress = 1024;
    constexpr std::uint64_t kDispatchTotal = 2'000'000;
    constexpr std::uint64_t kBatch = 4096;
    constexpr std::uint64_t kRounds = 300;

    double dispatch = 0, lambda = 0, dispatch1k = 0;
    double oneshot = 0, cancel = 0;
    for (int r = 0; r < kReps; ++r) {
        dispatch = std::max(dispatch, runDispatchMix(kActorsTypical,
                                                     kDispatchTotal));
        lambda = std::max(lambda, runDispatchLambdaMix(kActorsTypical,
                                                       kDispatchTotal));
        dispatch1k = std::max(dispatch1k,
                              runDispatchMix(kActorsStress,
                                             kDispatchTotal));
        oneshot = std::max(oneshot, runOneshotMix(kBatch, kRounds));
        cancel = std::max(cancel, runCancelMix(kBatch, kRounds));
    }

    std::printf("%-26s %10s\n", "mix", "M events/s");
    std::printf("%-26s %10.2f\n", "dispatch (64 actors)", dispatch / 1e6);
    std::printf("%-26s %10.2f\n", "dispatch (fresh lambda)",
                lambda / 1e6);
    std::printf("%-26s %10.2f\n", "dispatch (1024 actors)",
                dispatch1k / 1e6);
    std::printf("%-26s %10.2f\n", "oneshot schedule+drain",
                oneshot / 1e6);
    std::printf("%-26s %10.2f\n", "schedule+cancel half", cancel / 1e6);

    rep.add("dispatch_eps", dispatch);
    rep.add("dispatch_lambda_eps", lambda);
    rep.add("dispatch1024_eps", dispatch1k);
    rep.add("oneshot_eps", oneshot);
    rep.add("cancel_eps", cancel);

    return 0;
}
