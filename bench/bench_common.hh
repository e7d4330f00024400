/**
 * @file
 * Shared measurement harness for the figure benches.
 *
 * Latency is measured as the paper does (section 5.1): time to last
 * byte of one transfer issued on a quiet machine. Throughput keeps a
 * small number of transfers in flight (the benchmark engines on real
 * Enzian double-buffer the same way) and divides bytes moved by the
 * makespan, averaging over many runs.
 */

#ifndef ENZIAN_BENCH_COMMON_HH
#define ENZIAN_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "obs/json.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::bench {

/**
 * ENZIAN_THREADS (0 = unset = the classic single-queue machine, or one
 * thread for a rack). Every bench binary honors it, machines through
 * makeBenchMachine(), and BenchReport stamps it into the metrics JSON.
 */
using sim::envThreads;

/**
 * Coherence protocol requested via ENZIAN_PROTOCOL (empty = unset =
 * the config's default). Mirrors ENZIAN_THREADS: makeBenchMachine()
 * applies it and BenchReport stamps it into the metrics JSON, so a
 * protocol shootout's artifacts are self-describing while default
 * runs stay byte-identical to their golden files.
 */
inline std::string
envProtocol()
{
    const char *s = std::getenv("ENZIAN_PROTOCOL");
    return s && *s ? std::string(s) : std::string();
}

/**
 * Machine-readable companion to a bench's text output: named scalar
 * metrics accumulated during the run and written as
 * `BENCH_<name>.json` (into $ENZIAN_BENCH_DIR if set, else the
 * working directory) when the report goes out of scope. This is what
 * the perf trajectory ingests; the text tables stay for humans.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    ~BenchReport() { write(); }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Record one metric; insertion order is preserved in the file. */
    void add(const std::string &metric, double value)
    {
        metrics_.emplace_back(metric, value);
    }

    /** Destination path for the JSON document. */
    std::string path() const
    {
        const char *dir = std::getenv("ENZIAN_BENCH_DIR");
        std::string p =
            dir && *dir ? std::string(dir) + "/" : std::string();
        return p + "BENCH_" + name_ + ".json";
    }

    /** Write the report now (idempotent; the dtor calls this too). */
    void write()
    {
        if (written_)
            return;
        written_ = true;
        const std::string file = path();
        std::ofstream f(file, std::ios::trunc);
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         file.c_str());
            return;
        }
        f << "{\n  " << obs::json::quote("bench") << ": "
          << obs::json::quote(name_) << ",\n  ";
        // Only stamped when explicitly requested, so default runs
        // stay byte-identical to their golden files.
        if (envThreads() > 0)
            f << obs::json::quote("threads") << ": " << envThreads()
              << ",\n  ";
        if (const std::string proto = envProtocol(); !proto.empty())
            f << obs::json::quote("protocol") << ": "
              << obs::json::quote(proto) << ",\n  ";
        f << obs::json::quote("metrics") << ": {";
        bool first = true;
        for (const auto &[metric, value] : metrics_) {
            f << (first ? "\n" : ",\n") << "    "
              << obs::json::quote(metric) << ": "
              << obs::json::number(value);
            first = false;
        }
        f << "\n  }\n}\n";
        std::fprintf(stderr, "bench: wrote %s (%zu metrics)\n",
                     file.c_str(), metrics_.size());
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, double>> metrics_;
    bool written_ = false;
};

/** Print a section header for a figure. */
inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * A transfer primitive: move @p bytes once, call done(t) at the last
 * byte. The harness measures latency/throughput on top of it.
 */
using TransferFn =
    std::function<void(std::uint64_t bytes, std::function<void(Tick)>)>;

/**
 * Latency of one transfer on a quiet simulator (microseconds). @p sim
 * is anything with now() and run(): an EventQueue, or a machine,
 * which drives its domain scheduler when it is parallel.
 */
template <typename Sim>
double
measureLatencyUs(Sim &sim, std::uint64_t bytes, const TransferFn &fn)
{
    const Tick start = sim.now();
    Tick end = 0;
    bool done = false;
    fn(bytes, [&](Tick t) {
        end = t;
        done = true;
    });
    sim.run();
    if (!done)
        fatal("bench transfer never completed");
    return units::toMicros(end - start);
}

/**
 * Sustained throughput with @p inflight transfers in flight (GiB/s);
 * @p sim as for measureLatencyUs.
 */
template <typename Sim>
double
measureThroughputGiB(Sim &sim, std::uint64_t bytes, std::uint32_t runs,
                     std::uint32_t inflight, const TransferFn &fn)
{
    const Tick start = sim.now();
    Tick last = 0;
    std::uint32_t issued = 0, completed = 0;
    std::function<void()> issue = [&]() {
        if (issued >= runs)
            return;
        ++issued;
        fn(bytes, [&](Tick t) {
            last = std::max(last, t);
            ++completed;
            issue();
        });
    };
    for (std::uint32_t i = 0; i < inflight && i < runs; ++i)
        issue();
    sim.run();
    if (completed != runs)
        fatal("bench completed %u of %u transfers", completed, runs);
    const double secs = units::toSeconds(last - start);
    return static_cast<double>(bytes) * runs / secs /
           static_cast<double>(units::GiB);
}

/**
 * Fresh small-memory Enzian for a measurement. ENZIAN_THREADS turns
 * the machine parallel unless the caller already chose a mode.
 */
inline std::unique_ptr<platform::EnzianMachine>
makeBenchMachine(platform::EnzianMachine::Config cfg)
{
    cfg.cpu_dram_bytes = 256ull << 20;
    cfg.fpga_dram_bytes = 256ull << 20;
    if (cfg.threads == 0 && !cfg.shared_scheduler)
        cfg.threads = envThreads();
    if (const std::string proto = envProtocol();
        !proto.empty() && cfg.protocol == "moesi")
        cfg.protocol = proto;
    return std::make_unique<platform::EnzianMachine>(cfg);
}

/**
 * ECI line-transfer primitive: the FPGA reads (RLDI) or writes (RSTT)
 * CPU host memory with cache-line transactions, as the Figure 6
 * microbenchmark does.
 */
inline TransferFn
eciTransfer(platform::EnzianMachine &m, bool write)
{
    // Consecutive transfers walk disjoint buffers (as a benchmark
    // engine's ring would), so in-flight transfers never contend on
    // the same line at the home agent.
    auto next_base = std::make_shared<Addr>(0);
    return [&m, write, next_base](std::uint64_t bytes,
                                  std::function<void(Tick)> done) {
        const std::uint64_t lines = (bytes + cache::lineSize - 1) /
                                    cache::lineSize;
        const Addr base = *next_base;
        *next_base = (base + lines * cache::lineSize) % (192ull << 20);
        auto remaining = std::make_shared<std::uint64_t>(lines);
        auto last = std::make_shared<Tick>(0);
        auto cb = [remaining, last,
                   done = std::move(done)](Tick t) {
            *last = std::max(*last, t);
            if (--*remaining == 0)
                done(*last);
        };
        static std::vector<std::uint8_t> payload(cache::lineSize, 0xa5);
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr line = base + i * cache::lineSize;
            if (write)
                m.fpgaRemote().writeLineUncached(line, payload.data(),
                                                 cb);
            else
                m.fpgaRemote().readLineUncached(line, nullptr, cb);
        }
    };
}

/** PCIe DMA transfer primitive on an accelerator system. */
inline TransferFn
dmaTransfer(platform::PcieAccelSystem &sys, bool to_host)
{
    return [&sys, to_host](std::uint64_t bytes,
                           std::function<void(Tick)> done) {
        if (to_host)
            sys.dma->deviceToHost(0, 0x1000000, bytes,
                                  std::move(done));
        else
            sys.dma->hostToDevice(0x1000000, 0, bytes,
                                  std::move(done));
    };
}

} // namespace enzian::bench

#endif // ENZIAN_BENCH_COMMON_HH
