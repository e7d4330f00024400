/**
 * @file
 * enzload: open-loop load generation and capacity planning for the
 * simulated Enzian services.
 *
 * Drives one service (GBDT inference, RDMA reads, or TCP echo)
 * through the serving testbed at a single offered rate or across a
 * saturation sweep, and reports the knee: the highest offered load
 * whose p99 (or configured quantile) still meets the SLO. With a
 * fault plan the sweep runs twice — clean and faulted — and reports
 * the capacity the faults cost.
 *
 * Usage:
 *   enzload [--service gbdt|rdma|tcp] [--sweep [LO:HI:N]] [--rate R]
 *           [--process poisson|mmpp|diurnal] [--duration-ms X]
 *           [--window-ms X] [--slo-us X] [--slo-quantile Q]
 *           [--clients N] [--seed N] [--points N]
 *           [--batch N] [--engines N] [--bytes N]
 *           [--path dram|eci-host] [--flows N]
 *           [--plan FILE] [--protocol NAME] [--threads N]
 *           [--users-rps R] [--trace [FILE]] [--trace-requests N]
 *           [--json [FILE]] [--csv [FILE]]
 *
 * Default is an auto sweep (geometric ladder from 10% to 150% of the
 * testbed's estimated capacity). --rate runs one operating point
 * instead. ENZIAN_THREADS is honored like --threads; every service
 * runs in the machine's FPGA timing domain, so the output is the same
 * at any thread count.
 *
 * Exit status: 0 if a knee was found (or --rate met the SLO), 1 if no
 * operating point met the SLO, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "load/testbed.hh"
#include "obs/json.hh"
#include "obs/slo.hh"
#include "obs/span_tracer.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: enzload [--service gbdt|rdma|tcp] [--sweep [LO:HI:N]]\n"
        "               [--rate R] [--process poisson|mmpp|diurnal]\n"
        "               [--duration-ms X] [--window-ms X] [--slo-us X]\n"
        "               [--slo-quantile Q] [--clients N] [--seed N]\n"
        "               [--points N] [--batch N] [--engines N]\n"
        "               [--bytes N] [--path dram|eci-host] [--flows N]\n"
        "               [--plan FILE] [--protocol NAME] [--threads N]\n"
        "               [--users-rps R] [--trace [FILE]]\n"
        "               [--trace-requests N] [--json [FILE]]\n"
        "               [--csv [FILE]]\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 0);
    if (!end || *end) {
        std::fprintf(stderr, "enzload: bad %s '%s'\n", what, s);
        std::exit(2);
    }
    return v;
}

double
parseF64(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (!end || *end) {
        std::fprintf(stderr, "enzload: bad %s '%s'\n", what, s);
        std::exit(2);
    }
    return v;
}

/** Write via @p fn to @p path, or stdout for "-"/empty. */
template <typename Fn>
void
writeTo(const std::string &path, Fn fn)
{
    if (path.empty() || path == "-") {
        fn(std::cout);
        return;
    }
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "enzload: cannot open '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    fn(f);
    std::fprintf(stderr, "enzload: wrote %s\n", path.c_str());
}

/** Optional FILE operand: consume argv[i+1] unless it is a flag. */
std::string
fileOperand(int argc, char **argv, int &i)
{
    if (i + 1 < argc && argv[i + 1][0] != '-')
        return argv[++i];
    return "-";
}

/** Parse a LO:HI:N ladder spec. */
std::vector<double>
parseLadder(const std::string &spec)
{
    double lo = 0, hi = 0;
    unsigned long n = 0;
    char trailing = 0;
    if (std::sscanf(spec.c_str(), "%lf:%lf:%lu%c", &lo, &hi, &n,
                    &trailing) != 3 ||
        lo <= 0 || hi < lo || n < 1) {
        std::fprintf(stderr, "enzload: bad sweep spec '%s' "
                             "(want LO:HI:N)\n",
                     spec.c_str());
        std::exit(2);
    }
    return load::geometricRates(lo, hi, n);
}

void
printPoints(const load::SweepResult &r, const char *label)
{
    std::printf("\n%-12s %10s %10s %9s %9s %9s %9s %7s\n", label,
                "offered", "achieved", "p50us", "p99us", "p999us",
                "burn", "slo");
    for (const auto &p : r.points) {
        std::printf("%-12s %10.0f %10.0f %9.1f %9.1f %9.1f %9.4f "
                    "%7s\n",
                    "", p.offered_rps, p.achieved_rps, p.p50_us,
                    p.p99_us, p.p999_us, p.burn_rate,
                    p.slo_ok ? "ok" : "MISS");
    }
    if (r.knee >= 0)
        std::printf("%-12s knee at point %d: %.0f req/s\n", "",
                    r.knee, r.knee_rps);
    else
        std::printf("%-12s no operating point met the SLO\n", "");
}

void
jsonPoints(std::ostream &os, const load::SweepResult &r,
           const char *indent)
{
    os << "[";
    bool first = true;
    for (const auto &p : r.points) {
        os << (first ? "\n" : ",\n") << indent << "  {"
           << "\"offered_rps\": " << obs::json::number(p.offered_rps)
           << ", \"offered\": " << p.offered
           << ", \"completed\": " << p.completed
           << ", \"achieved_rps\": "
           << obs::json::number(p.achieved_rps)
           << ", \"p50_us\": " << obs::json::number(p.p50_us)
           << ", \"p99_us\": " << obs::json::number(p.p99_us)
           << ", \"p999_us\": " << obs::json::number(p.p999_us)
           << ", \"mean_us\": " << obs::json::number(p.mean_us)
           << ", \"max_us\": " << obs::json::number(p.max_us)
           << ", \"burn_rate\": " << obs::json::number(p.burn_rate)
           << ", \"slo_ok\": " << (p.slo_ok ? "true" : "false")
           << "}";
        first = false;
    }
    os << "\n" << indent << "]";
}

} // namespace

int
main(int argc, char **argv)
{
    load::SweepConfig cfg;
    std::optional<fault::FaultPlan> plan;
    double rate = 0.0;
    bool sweep = false;
    double users_rps = 0.0;
    bool want_json = false, want_csv = false, want_trace = false;
    std::string json_path, csv_path, trace_path;
    std::uint64_t trace_requests = 0;

    cfg.testbed.threads = sim::envThreads();

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--service") && i + 1 < argc) {
            cfg.testbed.service =
                load::serviceKindFromString(argv[++i]);
        } else if (!std::strcmp(arg, "--sweep")) {
            sweep = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                cfg.rates = parseLadder(argv[++i]);
        } else if (!std::strcmp(arg, "--rate") && i + 1 < argc) {
            rate = parseF64(argv[++i], "rate");
        } else if (!std::strcmp(arg, "--process") && i + 1 < argc) {
            cfg.arrival.kind =
                load::arrivalKindFromString(argv[++i]);
        } else if (!std::strcmp(arg, "--duration-ms") &&
                   i + 1 < argc) {
            cfg.duration =
                units::ms(parseF64(argv[++i], "duration"));
        } else if (!std::strcmp(arg, "--window-ms") && i + 1 < argc) {
            cfg.window = units::ms(parseF64(argv[++i], "window"));
        } else if (!std::strcmp(arg, "--slo-us") && i + 1 < argc) {
            cfg.slo_latency_us = parseF64(argv[++i], "slo");
        } else if (!std::strcmp(arg, "--slo-quantile") &&
                   i + 1 < argc) {
            cfg.slo_quantile = parseF64(argv[++i], "quantile");
        } else if (!std::strcmp(arg, "--clients") && i + 1 < argc) {
            cfg.clients = parseU64(argv[++i], "clients");
        } else if (!std::strcmp(arg, "--seed") && i + 1 < argc) {
            cfg.testbed.seed = parseU64(argv[++i], "seed");
            cfg.arrival.seed = cfg.testbed.seed;
        } else if (!std::strcmp(arg, "--points") && i + 1 < argc) {
            cfg.auto_points = parseU64(argv[++i], "points");
        } else if (!std::strcmp(arg, "--batch") && i + 1 < argc) {
            cfg.testbed.gbdt_batch = parseU64(argv[++i], "batch");
        } else if (!std::strcmp(arg, "--engines") && i + 1 < argc) {
            cfg.testbed.gbdt_engines = static_cast<std::uint32_t>(
                parseU64(argv[++i], "engines"));
        } else if (!std::strcmp(arg, "--bytes") && i + 1 < argc) {
            cfg.testbed.rdma_bytes = parseU64(argv[++i], "bytes");
            cfg.testbed.tcp_bytes = cfg.testbed.rdma_bytes;
        } else if (!std::strcmp(arg, "--path") && i + 1 < argc) {
            cfg.testbed.rdma_path = argv[++i];
        } else if (!std::strcmp(arg, "--flows") && i + 1 < argc) {
            cfg.testbed.tcp_flows = static_cast<std::uint32_t>(
                parseU64(argv[++i], "flows"));
        } else if (!std::strcmp(arg, "--plan") && i + 1 < argc) {
            std::string err;
            plan = fault::FaultPlan::parseFile(argv[++i], err);
            if (!plan) {
                std::fprintf(stderr, "enzload: %s\n", err.c_str());
                return 2;
            }
        } else if (!std::strcmp(arg, "--protocol") && i + 1 < argc) {
            cfg.testbed.protocol = argv[++i];
        } else if (!std::strcmp(arg, "--threads") && i + 1 < argc) {
            cfg.testbed.threads = static_cast<std::uint32_t>(
                parseU64(argv[++i], "threads"));
        } else if (!std::strcmp(arg, "--users-rps") && i + 1 < argc) {
            users_rps = parseF64(argv[++i], "users-rps");
        } else if (!std::strcmp(arg, "--trace")) {
            want_trace = true;
            trace_path = fileOperand(argc, argv, i);
        } else if (!std::strcmp(arg, "--trace-requests") &&
                   i + 1 < argc) {
            trace_requests = parseU64(argv[++i], "trace-requests");
        } else if (!std::strcmp(arg, "--json")) {
            want_json = true;
            json_path = fileOperand(argc, argv, i);
        } else if (!std::strcmp(arg, "--csv")) {
            want_csv = true;
            csv_path = fileOperand(argc, argv, i);
        } else {
            if (std::strcmp(arg, "--help"))
                std::fprintf(stderr, "enzload: unknown option '%s'\n",
                             arg);
            usage();
        }
    }
    if (rate > 0.0 && sweep) {
        std::fprintf(stderr,
                     "enzload: --rate and --sweep are exclusive\n");
        return 2;
    }
    if (rate > 0.0)
        cfg.rates = {rate};

    const char *svc = load::toString(cfg.testbed.service);
    std::printf("enzload: %s service, %s arrivals, SLO p%g <= %.0f us",
                svc, load::toString(cfg.arrival.kind),
                cfg.slo_quantile * 100.0, cfg.slo_latency_us);
    if (plan)
        std::printf(", %zu faults planned", plan->faults.size());
    std::printf("\n");

    const load::SweepResult base = load::runSweep(cfg);
    printPoints(base, "clean");

    std::optional<load::SweepResult> faulted;
    if (plan) {
        load::SweepConfig fcfg = cfg;
        // Reuse the clean ladder so the two runs share rates.
        if (fcfg.rates.empty())
            for (const auto &p : base.points)
                fcfg.rates.push_back(p.offered_rps);
        fcfg.testbed.plan = &*plan;
        faulted = load::runSweep(fcfg);
        printPoints(*faulted, "faulted");
        if (base.knee >= 0 && faulted->knee >= 0)
            std::printf("\nfault cost: knee %.0f -> %.0f req/s "
                        "(%.1f%% capacity lost)\n",
                        base.knee_rps, faulted->knee_rps,
                        100.0 * (1.0 - faulted->knee_rps /
                                           base.knee_rps));
    }

    if (users_rps > 0.0 && base.knee >= 0)
        std::printf("supported users at %.2f req/s each: %.0f\n",
                    users_rps, base.knee_rps / users_rps);

    // Per-request tracing: rerun the knee point (or the lightest
    // point if nothing met the SLO) with the tracer on.
    if (want_trace && !base.points.empty()) {
        const int idx = base.knee >= 0 ? base.knee : 0;
        load::TestbedConfig tbc = cfg.testbed;
        tbc.plan = nullptr;
        load::ServingTestbed bed(tbc);
        obs::SloRecorder::Config sc;
        sc.name = "trace";
        sc.window = cfg.window;
        sc.slo_latency_us = cfg.slo_latency_us;
        sc.slo_quantile = cfg.slo_quantile;
        obs::SloRecorder slo(sc);
        load::LoadGen::Config lc;
        lc.arrival = cfg.arrival;
        lc.arrival.rate_rps = base.points[idx].offered_rps;
        lc.duration = cfg.duration;
        lc.clients = cfg.clients;
        lc.trace_requests =
            trace_requests > 0 ? trace_requests : 32;
        obs::SpanTracer &tracer = obs::SpanTracer::global();
        tracer.setEnabled(true);
        load::LoadGen gen("serving.loadgen", bed.eventq(),
                          bed.driver(), slo, lc);
        gen.start();
        bed.run();
        tracer.setEnabled(false);
        writeTo(trace_path, [&](std::ostream &os) {
            tracer.writeChromeJson(os);
        });
    }

    if (want_json)
        writeTo(json_path, [&](std::ostream &os) {
            os << "{\n  \"service\": " << obs::json::quote(svc)
               << ",\n  \"process\": "
               << obs::json::quote(
                      load::toString(cfg.arrival.kind))
               << ",\n  \"protocol\": "
               << obs::json::quote(cfg.testbed.protocol)
               << ",\n  \"slo_us\": "
               << obs::json::number(cfg.slo_latency_us)
               << ",\n  \"slo_quantile\": "
               << obs::json::number(cfg.slo_quantile)
               << ",\n  \"duration_ms\": "
               << obs::json::number(units::toMicros(cfg.duration) /
                                    1000.0)
               << ",\n  \"points\": ";
            jsonPoints(os, base, "  ");
            os << ",\n  \"knee\": " << base.knee
               << ",\n  \"knee_rps\": "
               << obs::json::number(base.knee_rps);
            if (users_rps > 0.0)
                os << ",\n  \"knee_users\": "
                   << obs::json::number(
                          base.knee >= 0
                              ? base.knee_rps / users_rps
                              : 0.0);
            if (faulted) {
                os << ",\n  \"faulted_points\": ";
                jsonPoints(os, *faulted, "  ");
                os << ",\n  \"faulted_knee\": " << faulted->knee
                   << ",\n  \"faulted_knee_rps\": "
                   << obs::json::number(faulted->knee_rps)
                   << ",\n  \"knee_delta_rps\": "
                   << obs::json::number(base.knee_rps -
                                        faulted->knee_rps);
            }
            os << "\n}\n";
        });

    if (want_csv)
        writeTo(csv_path, [&](std::ostream &os) {
            os << "run,offered_rps,offered,completed,achieved_rps,"
                  "p50_us,p99_us,p999_us,mean_us,max_us,burn_rate,"
                  "slo_ok\n";
            auto rows = [&](const load::SweepResult &r,
                            const char *tag) {
                for (const auto &p : r.points) {
                    char line[320];
                    std::snprintf(
                        line, sizeof(line),
                        "%s,%.3f,%llu,%llu,%.3f,%.3f,%.3f,%.3f,"
                        "%.3f,%.3f,%.4f,%d\n",
                        tag, p.offered_rps,
                        static_cast<unsigned long long>(p.offered),
                        static_cast<unsigned long long>(p.completed),
                        p.achieved_rps, p.p50_us, p.p99_us,
                        p.p999_us, p.mean_us, p.max_us, p.burn_rate,
                        p.slo_ok ? 1 : 0);
                    os << line;
                }
            };
            rows(base, "clean");
            if (faulted)
                rows(*faulted, "faulted");
        });

    return base.knee >= 0 ? 0 : 1;
}
