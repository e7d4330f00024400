/**
 * @file
 * Round loop, tracer and registry-counter plumbing of the benchmark.
 */

#include "bench.hh"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

extern char **environ;

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

const char *
spanName(SpanKind k)
{
    switch (k) {
      case SpanKind::PlatformBuild:
        return "platform.build";
      case SpanKind::PlatformTeardown:
        return "platform.teardown";
      case SpanKind::SimRun:
        return "sim.run";
      case SpanKind::EciIssue:
        return "eci.issue";
      case SpanKind::PcieIssue:
        return "pcie.issue";
      case SpanKind::NetIssue:
        return "net.issue";
      case SpanKind::KvIssue:
        return "cluster.kv_issue";
      case SpanKind::AccelIssue:
        return "accel.issue";
      case SpanKind::LoadStart:
        return "load.start";
      case SpanKind::Count:
        break;
    }
    return "?";
}

namespace {

/** Open spans of the calling thread, innermost last. */
struct ThreadStack
{
    std::vector<std::pair<SpanKind, std::pair<Clock::time_point,
                                              std::int64_t>>> frames;
    std::uint32_t tid = ~0u;
};

thread_local ThreadStack t_stack;

} // namespace

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

void
Tracer::open(SpanKind k)
{
    t_stack.frames.push_back({k, {Clock::now(), 0}});
}

void
Tracer::close()
{
    const Clock::time_point end = Clock::now();
    auto &frames = t_stack.frames;
    const auto [kind, rest] = frames.back();
    const auto [start, childNs] = rest;
    frames.pop_back();
    const std::int64_t dur =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    selfNs_[static_cast<std::size_t>(kind)].fetch_add(
        dur - childNs, std::memory_order_relaxed);
    if (!frames.empty())
        frames.back().second.second += dur;

    if (keptCount_.fetch_add(1, std::memory_order_relaxed) >= kMaxKept)
        return;
    if (t_stack.tid == ~0u)
        t_stack.tid = nextTid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(keptMu_);
    {
        kept_.push_back(Kept{
            kind,
            std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                                 epoch_)
                .count(),
            dur, static_cast<std::uint32_t>(frames.size()),
            t_stack.tid});
    }
}

std::array<std::int64_t, kSpanKinds>
Tracer::takeRound()
{
    std::array<std::int64_t, kSpanKinds> out{};
    for (std::size_t i = 0; i < kSpanKinds; ++i)
        out[i] = selfNs_[i].exchange(0, std::memory_order_relaxed);
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    std::lock_guard<std::mutex> g(keptMu_);
    f << "{\"traceEvents\":[";
    bool first = true;
    for (const Kept &s : kept_) {
        f << (first ? "\n" : ",\n") << "{\"name\":\"" << spanName(s.kind)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
          << ",\"dur\":" << static_cast<double>(s.durNs) / 1e3
          << ",\"args\":{\"depth\":" << s.depth << "}}";
        first = false;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Setup and round loops
// ---------------------------------------------------------------------

namespace {

void
addMs(std::array<std::vector<double>, kSpanKinds> &into,
      const std::array<std::int64_t, kSpanKinds> &ns)
{
    for (std::size_t i = 0; i < kSpanKinds; ++i)
        into[i].push_back(static_cast<double>(ns[i]) / 1e6);
}

} // namespace

void
runSetup(const Options &opts, Result &res, const std::function<void()> &setup)
{
    if (opts.setupOnly) {
        // A setup_s probe: tell the parent setup is done, then leave
        // without tearing anything down.
        setup();
        const char ready = '\n';
        const bool told = ::write(STDOUT_FILENO, &ready, 1) == 1;
        std::_Exit(told ? 0 : 1);
    }
    // Traced runs repeat setup so platform.setup_build_ms is a median.
    Tracer &tr = Tracer::get();
    const std::uint32_t reps = opts.trace ? 5 : 1;
    for (std::uint32_t i = 0; i < reps; ++i) {
        tr.setOn(opts.trace);
        tr.takeRound();
        setup();
        tr.setOn(false);
        const auto ns = tr.takeRound();
        if (opts.trace)
            res.setupBuildMs.push_back(
                static_cast<double>(
                    ns[static_cast<std::size_t>(SpanKind::PlatformBuild)]) /
                1e6);
    }
}

bool
coldSetups(const Options &opts, std::uint32_t reps,
           std::vector<double> &secs)
{
    std::vector<std::string> args = {
        "perfbench", "--workload", opts.workload,
        "--seed", std::to_string(opts.seed),
        "--seconds", "1", "--trace", "0",
        "--threads", std::to_string(opts.threads),
        "--setup-only", "1"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    for (std::uint32_t i = 0; i < reps; ++i) {
        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        pid_t pid = 0;
        const auto t0 = Clock::now();
        const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        if (rc != 0) {
            ::close(fds[0]);
            return false;
        }
        char ready = 0;
        ssize_t n;
        while ((n = ::read(fds[0], &ready, 1)) < 0 && errno == EINTR) {
        }
        const double dt = secondsSince(t0);
        ::close(fds[0]);
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return false;
        secs.push_back(dt);
    }
    return true;
}

void
timedRounds(const Options &opts, Result &res,
            const std::function<RoundOut(bool)> &round)
{
    Tracer &tr = Tracer::get();
    tr.setOn(false);
    round(true);

    // With tracing, odd rounds are traced and even rounds are not, so
    // both kinds share the same process, inputs and host conditions.
    const std::uint32_t min_rounds = opts.trace ? 6 : 3;
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0;
         i < min_rounds || secondsSince(t0) < opts.seconds; ++i) {
        const bool traced = opts.trace && i % 2 == 1;
        tr.takeRound();
        tr.setOn(traced);
        const auto r0 = Clock::now();
        const RoundOut out = round(false);
        const double secs = secondsSince(r0);
        tr.setOn(false);
        const auto ns = tr.takeRound();
        const double rate = static_cast<double>(out.ops) / secs;
        if (traced) {
            res.tracedOpsPerSec.push_back(rate);
            res.tracedRoundEvents.push_back(
                static_cast<double>(out.events));
            addMs(res.tracedMs, ns);
        } else {
            res.opsPerSec.push_back(rate);
        }
    }
    res.peakRssMb = peakRssMb();
}

void
timeExport(const Options &opts, Result &res)
{
    if (!opts.trace)
        return;
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        std::ostringstream os;
        enzian::obs::Registry::exportJson(
            enzian::obs::Registry::global().snapshot(), os);
        ms.push_back(secondsSince(t0) * 1e3);
    }
    res.layer["obs.export_ms"] = median(ms);
}

// ---------------------------------------------------------------------
// Registry counters
// ---------------------------------------------------------------------

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
has(const std::string &s, const char *part)
{
    return s.find(part) != std::string::npos;
}

/** Map one dotted registry key to the counter bucket it feeds. */
const char *
bucketOf(const std::string &k)
{
    if (has(k, ".eci.link")) {
        if (endsWith(k, ".messages"))
            return "eci_msgs";
        if (endsWith(k, ".ser_wait_ns.sum"))
            return "eci_ser_sum";
        if (endsWith(k, ".ser_wait_ns.count"))
            return "eci_ser_cnt";
        return nullptr;
    }
    if (has(k, ".dram.ch")) {
        if (endsWith(k, ".requests"))
            return "dram_reqs";
        if (endsWith(k, ".queue_wait_ns.sum"))
            return "dram_qw_sum";
        if (endsWith(k, ".queue_wait_ns.count"))
            return "dram_qw_cnt";
        if (endsWith(k, ".latency_ns.sum"))
            return "dram_lat_sum";
        if (endsWith(k, ".latency_ns.count"))
            return "dram_lat_cnt";
        return nullptr;
    }
    if (has(k, "remote.")) {
        if (endsWith(k, "remote.rtt_ns.sum"))
            return "eci_rtt_sum";
        if (endsWith(k, "remote.rtt_ns.count"))
            return "eci_rtt_cnt";
        if (endsWith(k, "remote.pnaks") || endsWith(k, "remote.retries"))
            return "eci_retries";
        return nullptr;
    }
    if (has(k, "home.")) {
        if (endsWith(k, "home.service_ns.sum"))
            return "eci_home_sum";
        if (endsWith(k, "home.service_ns.count"))
            return "eci_home_cnt";
        if (endsWith(k, "home.snoops_sent"))
            return "eci_snoops";
        if (endsWith(k, "home.snoop_retries"))
            return "eci_retries";
        return nullptr;
    }
    if (has(k, ".dma.")) {
        if (endsWith(k, ".latency_ns.sum"))
            return "dma_lat_sum";
        if (endsWith(k, ".latency_ns.count"))
            return "dma_lat_cnt";
    }
    if (endsWith(k, ".l2.evictions"))
        return "l2_evictions";
    if (endsWith(k, ".transfers"))
        return "pcie_xfers";
    if (has(k, ".port") && (endsWith(k, ".bytes_tx_0") ||
                            endsWith(k, ".bytes_tx_1")))
        return "switch_bytes";
    if (endsWith(k, ".requests_served"))
        return "rdma_ops";
    if (endsWith(k, ".retries"))
        return "rdma_retries";
    if (endsWith(k, ".segments_tx"))
        return "tcp_segs";
    if (endsWith(k, ".retransmits"))
        return "tcp_retx";
    if (endsWith(k, ".served_batches"))
        return "gbdt_served";
    if (endsWith(k, ".serve_queue_wait_ns.sum"))
        return "gbdt_qw_sum";
    if (endsWith(k, ".serve_queue_wait_ns.count"))
        return "gbdt_qw_cnt";
    if (endsWith(k, ".serve_service_ns.sum"))
        return "gbdt_svc_sum";
    if (endsWith(k, ".serve_service_ns.count"))
        return "gbdt_svc_cnt";
    if (endsWith(k, ".offered"))
        return "load_offered";
    if (endsWith(k, ".completed"))
        return "load_completed";
    if (endsWith(k, ".epochs"))
        return "epochs";
    if (endsWith(k, ".cross_msgs"))
        return "cross_msgs";
    if (endsWith(k, ".adaptive_grows"))
        return "adaptive_grows";
    return nullptr;
}

} // namespace

void
Counters::absorb(const enzian::obs::Snapshot &snap)
{
    for (const auto &[k, v] : snap)
        if (const char *b = bucketOf(k))
            sum[b] += v;
}

void
Counters::report(std::map<std::string, double> &layer,
                 std::uint64_t ops) const
{
    auto get = [this](const char *b) {
        auto it = sum.find(b);
        return it == sum.end() ? 0.0 : it->second;
    };
    auto mean = [&](const char *s, const char *c) {
        const double n = get(c);
        return n > 0.0 ? get(s) / n : 0.0;
    };
    const double per_op = ops ? 1.0 / static_cast<double>(ops) : 0.0;

    layer["sim.epochs"] = get("epochs");
    layer["sim.cross_msgs"] = get("cross_msgs");
    layer["sim.adaptive_grows"] = get("adaptive_grows");
    layer["eci.msgs_per_op"] = get("eci_msgs") * per_op;
    layer["eci.rtt_ns"] = mean("eci_rtt_sum", "eci_rtt_cnt");
    layer["eci.ser_wait_ns"] = mean("eci_ser_sum", "eci_ser_cnt");
    layer["eci.home_service_ns"] = mean("eci_home_sum", "eci_home_cnt");
    layer["eci.snoops"] = get("eci_snoops");
    layer["eci.retries"] = get("eci_retries");
    layer["cache.l2_evictions"] = get("l2_evictions");
    layer["mem.dram_reqs"] = get("dram_reqs");
    layer["mem.dram_queue_wait_ns"] = mean("dram_qw_sum", "dram_qw_cnt");
    layer["mem.dram_latency_ns"] = mean("dram_lat_sum", "dram_lat_cnt");
    layer["pcie.xfers"] = get("pcie_xfers");
    layer["pcie.latency_ns"] = mean("dma_lat_sum", "dma_lat_cnt");
    layer["net.switch_bytes"] = get("switch_bytes");
    layer["net.rdma_ops"] = get("rdma_ops");
    layer["net.rdma_retry_ratio"] =
        get("rdma_ops") > 0.0 ? get("rdma_retries") / get("rdma_ops")
                              : 0.0;
    layer["net.tcp_segs"] = get("tcp_segs");
    layer["net.tcp_retransmits"] = get("tcp_retx");
    layer["accel.gbdt_served"] = get("gbdt_served");
    layer["accel.gbdt_queue_wait_ns"] = mean("gbdt_qw_sum", "gbdt_qw_cnt");
    layer["accel.gbdt_service_ns"] = mean("gbdt_svc_sum", "gbdt_svc_cnt");
    layer["load.offered"] = get("load_offered");
    layer["load.completed"] = get("load_completed");
}

} // namespace perfbench
