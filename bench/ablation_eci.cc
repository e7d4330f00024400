/**
 * @file
 * Ablation bench for the ECI design choices DESIGN.md calls out. Each
 * configuration runs a fixed simulated workload once and reports the
 * *simulated* throughput it achieved (sim GiB/s; simulator wall time
 * is incidental).
 *
 *  - link balancing policy (single / round-robin / hash / adaptive)
 *  - lane count (the BDK's 4-lane bring-up vs the full 12 per link)
 *  - requester MSHR depth (outstanding line transactions)
 *  - FPGA fabric clock (200 vs 300 MHz protocol-engine latency)
 */

#include "bench_common.hh"

using namespace enzian;
using namespace enzian::bench;

namespace {

double
runWorkload(platform::EnzianMachine::Config cfg,
            std::uint64_t transfer = 16384, std::uint32_t runs = 100)
{
    auto m = makeBenchMachine(cfg);
    return measureThroughputGiB(*m, transfer, runs, 4,
                                eciTransfer(*m, true));
}

/** Print and record one configuration's simulated throughput. */
void
point(BenchReport &rep, const std::string &metric, double gib)
{
    std::printf("%-28s %10.3f\n", metric.c_str(), gib);
    rep.add(metric, gib);
}

} // namespace

int
main()
{
    header("ECI ablation: simulated throughput per configuration");
    BenchReport rep("ablation_eci");
    std::printf("%-28s %10s\n", "metric", "sim_GiB/s");

    for (int p = 0; p <= 3; ++p) {
        const auto policy = static_cast<eci::BalancePolicy>(p);
        auto cfg = platform::enzianDefaultConfig();
        cfg.policy = policy;
        point(rep, format("balance_%s_gibps", toString(policy)),
              runWorkload(cfg));
    }
    for (std::uint32_t lanes : {4u, 8u, 12u}) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.link.lanes = lanes;
        cfg.policy = eci::BalancePolicy::SingleLink;
        point(rep, format("lanes_%u_gibps", lanes), runWorkload(cfg));
    }
    for (std::uint32_t depth : {1u, 4u, 16u, 32u, 64u}) {
        auto cfg = platform::enzianDefaultConfig();
        cfg.remote_agent.max_outstanding = depth;
        cfg.policy = eci::BalancePolicy::SingleLink;
        point(rep, format("mshr_%u_gibps", depth), runWorkload(cfg));
    }
    for (std::uint32_t mhz : {200u, 250u, 300u}) {
        // The FPGA protocol engine latency scales with the fabric
        // clock; model a 200 MHz image as 1.5x the 300 MHz engine
        // latency.
        auto cfg = platform::enzianDefaultConfig();
        cfg.link.fpga_proc_ns =
            platform::params::eciFpgaProcNs * (300.0 / mhz);
        cfg.policy = eci::BalancePolicy::SingleLink;
        point(rep, format("fabric_%umhz_gibps", mhz),
              runWorkload(cfg, 128, 400));
    }
    return 0;
}
