/**
 * @file
 * Shared pieces of the repository benchmark: options, seeded input
 * generation, the simulated-output digest, the per-workload result,
 * the timed round loop and the in-memory span tracer.
 *
 * Every workload follows the same shape:
 *
 *   setup   generate the inputs and build the one-time objects
 *           (machine, rack, testbeds). setup_s samples come from
 *           fresh processes that stop right after this step;
 *   round 0 untimed: the digest round. Its registry counters and
 *           simulated outputs feed sim_digest and the deterministic
 *           per-layer counters;
 *   rounds  timed: each round repeats the same simulated work and is
 *           one ops_per_s sample, until --seconds have passed.
 *
 * With tracing on, timed rounds alternate traced and untraced so the
 * tracing overhead is measured inside one process.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options shared by all workloads. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scheduler threads for rack_kv (the others are single-queue). */
    std::uint32_t threads = 2;
    /** Run setup once, signal it and exit (a setup_s probe). */
    bool setupOnly = false;
};

/** SplitMix64: the benchmark's only source of pseudo-randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t s_;
};

/** Fill out[from, to) (to - from a multiple of 8) from Rng(@p seed). */
inline void
fillRandom(std::uint64_t seed, std::uint8_t *out, std::size_t from,
           std::size_t to)
{
    Rng r(seed);
    for (std::size_t i = from; i < to; i += 8) {
        const std::uint64_t v = r.next();
        std::memcpy(out + i, &v, 8);
    }
}

/** Derive an independent stream seed from the run seed and a salt. */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    Rng r(seed ^ (salt * 0xd1b54a32d192ed03ull));
    return r.next();
}

/** FNV-1a over simulated outputs and registry snapshots. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    snapshot(const enzian::obs::Snapshot &snap)
    {
        for (const auto &[k, v] : snap) {
            bytes(k.data(), k.size());
            f64(v);
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Quantile @p q of @p v, interpolated (0 for an empty vector). */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}


// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each module.
// ---------------------------------------------------------------------

/** What a span times; each kind belongs to one layer. */
enum class SpanKind : std::uint8_t {
    PlatformBuild,    ///< machine / rack / testbed constructors
    PlatformTeardown, ///< their destructors
    SimRun,           ///< run() / runUntil()
    EciIssue,         ///< RemoteAgent read/write issue
    PcieIssue,        ///< DmaEngine transfer issue
    NetIssue,         ///< TcpStack send issue
    KvIssue,          ///< ReplicatedKv put/get issue
    AccelIssue,       ///< GbdtEngine serve issue
    LoadStart,        ///< LoadGen construction and start
    Count
};

constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::Count);

/** Metric-style name of a span kind ("platform.build", ...). */
const char *spanName(SpanKind k);

/**
 * In-memory span recorder. Spans nest per thread; a span's self time
 * is its duration minus the time its child spans cover. Self time is
 * summed per kind for the current round; the first spans are kept
 * verbatim and written out as a Chrome trace at exit.
 */
class Tracer
{
  public:
    static Tracer &get();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void setOn(bool v) { on_.store(v, std::memory_order_relaxed); }

    void open(SpanKind k);
    void close();

    /** Self nanoseconds per kind since the last takeRound(). */
    std::array<std::int64_t, kSpanKinds> takeRound();

    /** Write the kept spans as Chrome trace JSON to @p path. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Kept
    {
        SpanKind kind;
        std::int64_t startNs;
        std::int64_t durNs;
        std::uint32_t depth;
        std::uint32_t tid;
    };
    static constexpr std::size_t kMaxKept = 20000;

    std::atomic<bool> on_{false};
    std::array<std::atomic<std::int64_t>, kSpanKinds> selfNs_{};
    Clock::time_point epoch_ = Clock::now();
    std::atomic<std::size_t> keptCount_{0};
    mutable std::mutex keptMu_;
    std::vector<Kept> kept_;
    std::atomic<std::uint32_t> nextTid_{0};
};

/** RAII span; free when tracing is off. */
class Span
{
  public:
    explicit Span(SpanKind k) : active_(Tracer::get().on())
    {
        if (active_)
            Tracer::get().open(k);
    }
    ~Span()
    {
        if (active_)
            Tracer::get().close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

/** What one workload run produced. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated ops per host second, one per timed round. */
    std::vector<double> opsPerSec;
    /** Host seconds per cold setup probe (untraced runs only). */
    std::vector<double> setupSec;
    /** Peak RSS (MiB) at the end of the timed phase. */
    double peakRssMb = 0.0;
    /** Mean relative error (%) against the paper reference table. */
    double paperErrPct = 0.0;
    Digest digest;
    /** Per-layer metrics (deterministic counters and host medians). */
    std::map<std::string, double> layer;
    /** Self ms per span kind, one vector entry per traced round. */
    std::array<std::vector<double>, kSpanKinds> tracedMs;
    /** Construction self ms, one entry per traced setup rep. */
    std::vector<double> setupBuildMs;
    /** Ops/s of traced timed rounds (for the tracing overhead). */
    std::vector<double> tracedOpsPerSec;
    /** Events executed in each traced round (sim.ns_per_event). */
    std::vector<double> tracedRoundEvents;
};

/**
 * Run @p setup: once untraced, five times traced (tearing down the
 * previous rep's objects is @p setup's own job). With
 * opts.setupOnly, run it once, write one byte to standard output and
 * exit: the process is a setup_s probe.
 */
void runSetup(const Options &opts, Result &res,
              const std::function<void()> &setup);

/**
 * setup_s samples: spawn @p reps fresh copies of this binary in
 * setup-only mode, one after another, and time each from the spawn to
 * its ready byte. A sample is process start-up plus the cold input
 * generation and construction, up to the first timed event.
 * @return false if a probe failed.
 */
bool coldSetups(const Options &opts, std::uint32_t reps,
                std::vector<double> &secs);

/** What one round did. */
struct RoundOut
{
    std::uint64_t ops = 0;
    /** Events the simulator executed in this round. */
    std::uint64_t events = 0;
};

/**
 * Round 0 (untimed, @p digestRound = true), then timed rounds until
 * opts.seconds have passed. @p round runs one round and returns its
 * ops; attempted/failed accounting is the round's job.
 */
void timedRounds(const Options &opts, Result &res,
                 const std::function<RoundOut(bool digestRound)> &round);

/** Current peak resident set size in MiB. */
double peakRssMb();

/**
 * With tracing, time a registry snapshot plus JSON export of what is
 * live now (median of five) into layer["obs.export_ms"].
 */
void timeExport(const Options &opts, Result &res);

// ---------------------------------------------------------------------
// Registry counters → per-layer metrics.
// ---------------------------------------------------------------------

/**
 * Sums of the registry statistics the per-layer metrics read. Fed one
 * or more snapshots (or snapshot diffs) of the digest round.
 */
struct Counters
{
    void absorb(const enzian::obs::Snapshot &snap);
    /** Write the derived per-layer metrics into @p layer. */
    void report(std::map<std::string, double> &layer,
                std::uint64_t ops) const;

    std::map<std::string, double> sum;
};

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

Result runLinkSweep(const Options &opts);
Result runEciStream(const Options &opts);
Result runRackKv(const Options &opts);
Result runServingMix(const Options &opts);

/** Simulated Fig. 6 figures of one sweep pass. */
struct SweepFigures
{
    /** Latency (us) and bandwidth (GiB/s) per size, per series. */
    std::vector<std::uint64_t> sizes;
    std::vector<double> eciRdLat, eciWrLat, pcieRdLat, pcieWrLat;
    std::vector<double> eciRdBw, eciWrBw, pcieRdBw, pcieWrBw;
    /** Read latency (us) past the sweep sizes, for the crossover. */
    std::vector<std::uint64_t> crossSizes;
    std::vector<double> eciRdLatCross, pcieRdLatCross;
    double twoSocketNs = 0.0;
    double twoSocketGib = 0.0;
};

/** One untimed sweep pass for workloads other than link_sweep. */
SweepFigures referencePass();

/**
 * Mean relative error (%) of @p f against the paper reference table,
 * and the simulated quantities compared, added to @p layer as
 * model.* metrics.
 */
double paperError(const SweepFigures &f,
                  std::map<std::string, double> *layer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
