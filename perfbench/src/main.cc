/**
 * @file
 * perfbench: the repository benchmark's binary.
 *
 *   perfbench --workload <link_sweep|eci_stream|rack_kv|serving_mix>
 *             --seed N --seconds S --trace 0|1
 *             [--threads T] [--git-sha SHA] [--trace-out FILE]
 *
 * Prints a human summary, a host stamp line and the sim_digest, then,
 * as the last line, one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. Untraced runs report the end-to-end metrics;
 * traced runs report the per-layer metrics. Exit status 0 unless the
 * arguments are bad or a setup probe failed.
 *
 * An untraced run first spawns fresh copies of itself with
 * `--setup-only 1`; each runs the workload's setup, writes one byte
 * and exits. Those spawn-to-ready times are the setup_s samples.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace {

/** Fresh processes timed for setup_s in an untraced run. */
constexpr std::uint32_t kSetupProbes = 15;

struct Metric
{
    const char *name;
    const char *unit;
};

constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"paper_err_pct", "%"},
};

constexpr Metric kPerLayer[] = {
    {"platform.build_ms", "ms"},
    {"platform.teardown_ms", "ms"},
    {"platform.setup_build_ms", "ms"},
    {"platform.builds", "count"},
    {"platform.build_ms_per_machine", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.epochs", "count"},
    {"sim.barrier_ms", "ms"},
    {"sim.barrier_frac", "ratio"},
    {"sim.cross_msgs", "count"},
    {"sim.adaptive_grows", "count"},
    {"eci.issue_ms", "ms"},
    {"eci.msgs_per_op", "count"},
    {"eci.rtt_ns", "ns"},
    {"eci.ser_wait_ns", "ns"},
    {"eci.home_service_ns", "ns"},
    {"eci.snoops", "count"},
    {"eci.retries", "count"},
    {"cache.l2_hit_ratio_hot", "ratio"},
    {"cache.l2_hit_ratio_cold", "ratio"},
    {"cache.l2_evictions", "count"},
    {"mem.dram_reqs", "count"},
    {"mem.dram_queue_wait_ns", "ns"},
    {"mem.dram_latency_ns", "ns"},
    {"pcie.issue_ms", "ms"},
    {"pcie.xfers", "count"},
    {"pcie.latency_ns", "ns"},
    {"net.issue_ms", "ms"},
    {"net.switch_bytes", "B"},
    {"net.rdma_ops", "count"},
    {"net.rdma_retry_ratio", "ratio"},
    {"net.tcp_segs", "count"},
    {"net.tcp_retransmits", "count"},
    {"cluster.kv_issue_ms", "ms"},
    {"cluster.kv_puts", "count"},
    {"cluster.kv_gets", "count"},
    {"cluster.kv_local_read_ratio", "ratio"},
    {"cluster.kv_put_sim_us_p50", "us"},
    {"cluster.kv_put_sim_us_p99", "us"},
    {"cluster.kv_get_sim_us_p50", "us"},
    {"cluster.kv_get_sim_us_p99", "us"},
    {"accel.issue_ms", "ms"},
    {"accel.gbdt_served", "count"},
    {"accel.gbdt_queue_wait_ns", "ns"},
    {"accel.gbdt_service_ns", "ns"},
    {"load.start_ms", "ms"},
    {"load.offered", "count"},
    {"load.completed", "count"},
    {"load.gbdt_lo_sim_p50_us", "us"},
    {"load.gbdt_lo_sim_p99_us", "us"},
    {"load.gbdt_hi_sim_p50_us", "us"},
    {"load.gbdt_hi_sim_p99_us", "us"},
    {"load.tcp_lo_sim_p50_us", "us"},
    {"load.tcp_lo_sim_p99_us", "us"},
    {"load.tcp_hi_sim_p50_us", "us"},
    {"load.tcp_hi_sim_p99_us", "us"},
    {"obs.export_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"model.two_socket_latency_ns", "ns"},
    {"model.two_socket_bw_gib", "GiB/s"},
    {"model.crossover_kib", "KiB"},
    {"model.eci_16KiB_bw_gib", "GiB/s"},
    {"model.pcie_16KiB_bw_gib", "GiB/s"},
    {"model.eci_pcie_128B_lat_ratio", "ratio"},
    {"model.eci_rd_128B_lat_us", "us"},
    {"model.pcie_rd_128B_lat_us", "us"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<link_sweep|eci_stream|rack_kv|serving_mix> --seed N "
                 "--seconds S --trace 0|1 [--threads T] "
                 "[--git-sha SHA] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || s[0] == '-')
        usage((std::string("bad ") + what + " '" + s + "'").c_str());
    return v;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Fill the host-time per-layer metrics from the traced rounds. */
void
hostLayers(const Result &res, std::uint32_t setup_machines,
           std::map<std::string, double> &layer)
{
    auto ms = [&](SpanKind k) {
        return median(res.tracedMs[static_cast<std::size_t>(k)]);
    };
    layer["platform.build_ms"] = ms(SpanKind::PlatformBuild);
    layer["platform.teardown_ms"] = ms(SpanKind::PlatformTeardown);
    const double setup_build = median(res.setupBuildMs);
    layer["platform.setup_build_ms"] = setup_build;
    const double builds = layer["platform.builds"];
    layer["platform.build_ms_per_machine"] =
        builds > 0.0 ? layer["platform.build_ms"] / builds
                     : setup_build / setup_machines;
    layer["sim.run_ms"] = ms(SpanKind::SimRun);
    std::vector<double> ns_per_event;
    const auto &run = res.tracedMs[static_cast<std::size_t>(SpanKind::SimRun)];
    for (std::size_t i = 0; i < run.size(); ++i)
        if (res.tracedRoundEvents[i] > 0.0)
            ns_per_event.push_back(run[i] * 1e6 / res.tracedRoundEvents[i]);
    layer["sim.ns_per_event"] = median(ns_per_event);
    layer["eci.issue_ms"] = ms(SpanKind::EciIssue);
    layer["pcie.issue_ms"] = ms(SpanKind::PcieIssue);
    layer["net.issue_ms"] = ms(SpanKind::NetIssue);
    layer["cluster.kv_issue_ms"] = ms(SpanKind::KvIssue);
    layer["accel.issue_ms"] = ms(SpanKind::AccelIssue);
    layer["load.start_ms"] = ms(SpanKind::LoadStart);
    const double traced = median(res.tracedOpsPerSec);
    layer["bench.trace_overhead_pct"] =
        traced > 0.0 ? 100.0 * (median(res.opsPerSec) / traced - 1.0)
                     : 0.0;
}

/** Host stamp: where and how the numbers were made. */
std::string
hostStamp(const Options &opts, const std::string &sha)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \"" << sha
       << "\", \"threads\": "
       << (opts.workload == "rack_kv" ? opts.threads : 1)
       << ", \"workload\": \"" << opts.workload
       << "\", \"seed\": " << opts.seed << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string sha = "unknown";
    std::string trace_out;
    bool have_trace = false, have_seed = false, have_secs = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = parseUint(v, "seed"), have_seed = true;
        else if (a == "--seconds")
            opts.seconds = static_cast<double>(parseUint(v, "seconds")),
            have_secs = true;
        else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opts.trace = v == "1";
            have_trace = true;
        } else if (a == "--threads")
            opts.threads =
                static_cast<std::uint32_t>(parseUint(v, "threads"));
        else if (a == "--git-sha")
            sha = v;
        else if (a == "--trace-out")
            trace_out = v;
        else if (a == "--setup-only")
            opts.setupOnly = v == "1";
        else
            usage(("unknown option " + a).c_str());
    }
    if (!have_seed || !have_secs || !have_trace || opts.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");
    if (opts.threads == 0)
        usage("--threads must be positive");

    if (opts.workload != "link_sweep" && opts.workload != "eci_stream" &&
        opts.workload != "rack_kv" && opts.workload != "serving_mix")
        usage(("unknown workload '" + opts.workload + "'").c_str());

    // setup_s comes from fresh processes, so it includes process
    // start-up and the cold first construction.
    std::vector<double> setup_sec;
    if (!opts.trace && !opts.setupOnly &&
        !coldSetups(opts, kSetupProbes, setup_sec)) {
        std::fprintf(stderr, "perfbench: a setup probe failed\n");
        return 1;
    }

    Result res;
    std::uint32_t setup_machines = 1;
    if (opts.workload == "link_sweep") {
        res = runLinkSweep(opts);
    } else if (opts.workload == "eci_stream") {
        res = runEciStream(opts);
    } else if (opts.workload == "rack_kv") {
        res = runRackKv(opts);
        setup_machines = 4;
    } else {
        res = runServingMix(opts);
        setup_machines = 2;
    }
    res.setupSec = std::move(setup_sec);

    // The paper comparison is a property of the model; workloads that
    // do not sweep Figure 6 themselves make one untimed pass for it.
    if (opts.workload != "link_sweep")
        res.paperErrPct = paperError(referencePass(), &res.layer);

    const double ops_per_s = median(res.opsPerSec);
    const double setup_s = median(res.setupSec);
    const double fail_frac =
        static_cast<double>(res.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, res.attempted));
    std::printf("workload %s seed %llu: %zu timed rounds, %zu setup probes\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                res.opsPerSec.size() + res.tracedOpsPerSec.size(),
                res.setupSec.size());
    std::printf("  ops_per_s     %14.1f ops/s\n", ops_per_s);
    {
        const std::vector<double> &r = res.opsPerSec;
        std::printf("    per round (median above): n=%zu min %.1f p25 %.1f "
                    "p75 %.1f max %.1f\n",
                    r.size(), quantile(r, 0.0), quantile(r, 0.25),
                    quantile(r, 0.75), quantile(r, 1.0));
    }
    std::printf("  setup_s       %14.6f s\n", setup_s);
    std::printf("  peak_rss_mb   %14.1f MiB\n", res.peakRssMb);
    std::printf("  fail_frac     %14.6f ratio (%llu of %llu)\n", fail_frac,
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
    std::printf("  paper_err_pct %14.3f %%\n", res.paperErrPct);
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(res.digest.value()));
    std::printf("host %s\n", hostStamp(opts, sha).c_str());

    std::map<std::string, double> metrics;
    const Metric *list = kEndToEnd;
    std::size_t n = std::size(kEndToEnd);
    if (opts.trace) {
        hostLayers(res, setup_machines, res.layer);
        for (const auto &[k, v] : res.layer) {
            bool known = false;
            for (const Metric &m : kPerLayer)
                known = known || k == m.name;
            if (!known) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                             k.c_str());
                return 3;
            }
        }
        metrics = res.layer;
        list = kPerLayer;
        n = std::size(kPerLayer);
        if (!trace_out.empty() &&
            !Tracer::get().writeChromeJson(trace_out))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_out.c_str());
    } else {
        metrics["ops_per_s"] = ops_per_s;
        metrics["setup_s"] = setup_s;
        metrics["peak_rss_mb"] = res.peakRssMb;
        metrics["paper_err_pct"] = res.paperErrPct;
    }

    std::ostringstream os;
    os << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = metrics.find(list[i].name);
        const double v = it == metrics.end() ? 0.0 : it->second;
        os << (i ? ", " : "") << "\"" << list[i].name
           << "\": {\"value\": " << jsonNumber(v) << ", \"unit\": \""
           << list[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
