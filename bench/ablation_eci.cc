/**
 * @file
 * Ablation bench for the ECI design choices DESIGN.md calls out,
 * built on google-benchmark. Each benchmark runs a fixed simulated
 * workload; the reported counter `sim_GiBps` is the *simulated*
 * throughput achieved under that configuration (wall time measures
 * simulator speed and is incidental).
 *
 *  - link balancing policy (single / round-robin / hash / adaptive)
 *  - lane count (the BDK's 4-lane bring-up vs the full 12 per link)
 *  - requester MSHR depth (outstanding line transactions)
 *  - FPGA fabric clock (200 vs 300 MHz protocol-engine latency)
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"

using namespace enzian;
using namespace enzian::bench;

namespace {

/** Shared report; each benchmark adds its simulated-throughput point. */
BenchReport &
report()
{
    static BenchReport rep("ablation_eci");
    return rep;
}

double
runWorkload(platform::EnzianMachine::Config cfg,
            std::uint64_t transfer = 16384, std::uint32_t runs = 100)
{
    auto m = makeBenchMachine(cfg);
    return measureThroughputGiB(*m, transfer, runs, 4,
                                eciTransfer(*m, true));
}

void
BM_BalancePolicy(benchmark::State &state)
{
    const auto policy =
        static_cast<eci::BalancePolicy>(state.range(0));
    double gib = 0;
    for (auto _ : state) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.policy = policy;
        gib = runWorkload(cfg);
        benchmark::DoNotOptimize(gib);
    }
    state.counters["sim_GiBps"] = gib;
    state.SetLabel(toString(policy));
    report().add(format("balance_%s_gibps", toString(policy)), gib);
}

void
BM_LaneCount(benchmark::State &state)
{
    double gib = 0;
    for (auto _ : state) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.link.lanes = static_cast<std::uint32_t>(state.range(0));
        cfg.policy = eci::BalancePolicy::SingleLink;
        gib = runWorkload(cfg);
        benchmark::DoNotOptimize(gib);
    }
    state.counters["sim_GiBps"] = gib;
    report().add(format("lanes_%lld_gibps",
                        static_cast<long long>(state.range(0))),
                 gib);
}

void
BM_MshrDepth(benchmark::State &state)
{
    double gib = 0;
    for (auto _ : state) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.remote_agent.max_outstanding =
            static_cast<std::uint32_t>(state.range(0));
        cfg.policy = eci::BalancePolicy::SingleLink;
        gib = runWorkload(cfg);
        benchmark::DoNotOptimize(gib);
    }
    state.counters["sim_GiBps"] = gib;
    report().add(format("mshr_%lld_gibps",
                        static_cast<long long>(state.range(0))),
                 gib);
}

void
BM_FabricClock(benchmark::State &state)
{
    // The FPGA protocol engine latency scales with the fabric clock;
    // model a 200 MHz image as 1.5x the 300 MHz engine latency.
    const double mhz = static_cast<double>(state.range(0));
    double gib = 0;
    for (auto _ : state) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.link.fpga_proc_ns =
            platform::params::eciFpgaProcNs * (300.0 / mhz);
        cfg.policy = eci::BalancePolicy::SingleLink;
        gib = runWorkload(cfg, 128, 400);
        benchmark::DoNotOptimize(gib);
    }
    state.counters["sim_GiBps"] = gib;
    report().add(format("fabric_%lldmhz_gibps",
                        static_cast<long long>(state.range(0))),
                 gib);
}

BENCHMARK(BM_BalancePolicy)->DenseRange(0, 3)->Iterations(1);
BENCHMARK(BM_LaneCount)->Arg(4)->Arg(8)->Arg(12)->Iterations(1);
BENCHMARK(BM_MshrDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(32)->Arg(64)
    ->Iterations(1);
BENCHMARK(BM_FabricClock)->Arg(200)->Arg(250)->Arg(300)->Iterations(1);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    report().write();
    return 0;
}
