/**
 * @file
 * enzstat: run the observability demo scenario on a full Enzian
 * machine and export its statistics.
 *
 * The machine-readable face of the simulator: every SimObject's stat
 * group is in the global registry, so one run surfaces ECI link
 * latencies, home/remote agent occupancy, DRAM channel load, TCP and
 * vFPGA activity, and the CPU PMU in a single document.
 *
 * Usage:
 *   enzstat                      human-readable snapshot to stdout
 *   enzstat --json [FILE]        registry snapshot as JSON
 *   enzstat --prom [FILE]        Prometheus text exposition
 *   enzstat --csv  [FILE]        sampled time series (per-interval deltas)
 *   enzstat --trace [FILE]       Chrome/Perfetto span trace JSON
 *   enzstat --slo  [FILE]        windowed latency-percentile series from
 *                                a GBDT serving run at half capacity
 *   enzstat --interval-us N      sampling period for --csv (default 50000)
 *   enzstat --adaptive           adaptive epochs on the parallel
 *                                machine (implies 1 worker thread
 *                                unless ENZIAN_THREADS says more);
 *                                the scheduler's epoch_len histogram
 *                                and adaptive_grows/adaptive_shrinks
 *                                counters appear in every export
 *
 * FILE defaults to stdout ("-"). Options combine; each export runs
 * over the same single scenario.
 *
 * ENZIAN_THREADS=N runs the machine as parallel timing domains on N
 * worker threads (same stats, bit-identical simulation). --csv is the
 * exception: the sampler snapshots the registry mid-run, which would
 * observe other domains' half-folded counters, so csv runs stay on
 * the legacy single-queue machine.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "load/load_gen.hh"
#include "load/testbed.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/slo.hh"
#include "obs/span_tracer.hh"
#include "platform/obs_demo.hh"
#include "platform/platform_factory.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;

namespace {

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
        std::fprintf(stderr, "enzstat: cannot open '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    fn(f);
    std::fprintf(stderr, "enzstat: wrote %s\n", path.c_str());
}

/** Optional FILE operand: consume argv[i+1] unless it is a flag. */
std::string
fileOperand(int argc, char **argv, int &i)
{
    if (i + 1 < argc && argv[i + 1][0] != '-')
        return argv[++i];
    return "-";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false, prom = false, csv = false, trace = false;
    bool slo = false, adaptive = false;
    std::string json_path, prom_path, csv_path, trace_path, slo_path;
    double interval_us = 50000.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
            json_path = fileOperand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--prom") == 0) {
            prom = true;
            prom_path = fileOperand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
            csv_path = fileOperand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace = true;
            trace_path = fileOperand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--slo") == 0) {
            slo = true;
            slo_path = fileOperand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--interval-us") == 0 &&
                   i + 1 < argc) {
            interval_us = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--adaptive") == 0) {
            adaptive = true;
        } else {
            std::fprintf(stderr,
                         "usage: enzstat [--json [FILE]] "
                         "[--prom [FILE]] [--csv [FILE]] "
                         "[--trace [FILE]] [--slo [FILE]] "
                         "[--interval-us N] [--adaptive]\n");
            return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
        }
    }
    if (interval_us <= 0) {
        std::fprintf(stderr, "enzstat: bad --interval-us\n");
        return 2;
    }

    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 256ull << 20;
    cfg.fpga_dram_bytes = 256ull << 20;
    cfg.bitstream = "coyote-shell"; // demo schedules vFPGA apps
    if (const std::uint32_t threads = sim::envThreads(); threads > 0) {
        if (csv) {
            std::fprintf(stderr,
                         "enzstat: --csv samples the registry "
                         "mid-run; ignoring ENZIAN_THREADS=%u and "
                         "using the single-queue machine\n",
                         threads);
        } else {
            cfg.threads = threads;
        }
    }
    if (adaptive) {
        if (csv) {
            std::fprintf(stderr, "enzstat: --adaptive is ignored with "
                                 "--csv (single-queue machine)\n");
        } else {
            cfg.adaptive_epochs = true;
            if (cfg.threads == 0)
                cfg.threads = 1;
        }
    }
    platform::EnzianMachine m(cfg);
    platform::ObsDemo demo(m);

    obs::SpanTracer &tracer = obs::SpanTracer::global();
    tracer.setEnabled(trace);

    // The sampler pre-schedules its snapshot events; the demo's FPGA
    // phase runs into the seconds (partial reconfiguration), so cover
    // a generous window. Extra tail samples just record zero deltas.
    obs::Sampler sampler(obs::Registry::global(), m.eventq(),
                         units::us(interval_us));
    if (csv)
        sampler.run(m.now() + units::ms(3000.0));

    demo.run();

    std::fprintf(stderr,
                 "enzstat: scenario done at %.2f ms sim time: %llu ECI "
                 "lines, %llu TCP bytes, %llu vFPGA jobs\n",
                 units::toMicros(m.now()) / 1000.0,
                 static_cast<unsigned long long>(demo.eciLines()),
                 static_cast<unsigned long long>(demo.tcpBytes()),
                 static_cast<unsigned long long>(demo.fpgaJobs()));
    if (sim::DomainScheduler *sched = m.scheduler()) {
        std::fprintf(
            stderr,
            "enzstat: %llu epochs (%s), %llu adaptive grows, %llu "
            "shrinks\n",
            static_cast<unsigned long long>(sched->epochs()),
            sched->adaptive() ? "adaptive" : "fixed",
            static_cast<unsigned long long>(sched->adaptiveGrows()),
            static_cast<unsigned long long>(sched->adaptiveShrinks()));
    }

    if (slo) {
        // A second, independent run: Poisson arrivals into the GBDT
        // serving testbed at half its estimated capacity, reported as
        // tumbling-window percentile rows.
        load::TestbedConfig tbc;
        tbc.threads = cfg.threads;
        load::ServingTestbed bed(tbc);
        obs::SloRecorder::Config sc;
        sc.window = units::ms(5.0);
        obs::SloRecorder rec(sc);
        load::LoadGen::Config lc;
        lc.arrival.rate_rps = 0.5 * bed.estimatedCapacityRps();
        lc.duration = units::ms(50.0);
        load::LoadGen gen("serving.loadgen", bed.eventq(),
                          bed.driver(), rec, lc);
        gen.start();
        bed.run();
        rec.rollTo(bed.eventq().now());
        writeTo(slo_path, [&](std::ostream &os) {
            rec.writeCsv(os);
        });
    }

    obs::Registry &reg = obs::Registry::global();
    if (json)
        writeTo(json_path, [&](std::ostream &os) {
            reg.exportJson(os);
        });
    if (prom)
        writeTo(prom_path, [&](std::ostream &os) {
            reg.exportPrometheus(os);
        });
    if (csv)
        writeTo(csv_path, [&](std::ostream &os) {
            sampler.writeCsv(os);
        });
    if (trace)
        writeTo(trace_path, [&](std::ostream &os) {
            tracer.writeChromeJson(os);
        });

    if (!json && !prom && !csv && !trace && !slo) {
        // Default: gem5-style text dump of every registered group.
        for (const StatGroup *g : reg.groups())
            g->dump(std::cout);
    }
    return 0;
}
