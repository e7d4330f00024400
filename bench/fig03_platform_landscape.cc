/**
 * @file
 * Figure 3: CPU-FPGA performance landscape (latency vs bandwidth).
 *
 * Follows the paper's method: the non-Enzian interconnect points are
 * the published Choi et al. reference data; the Enzian points (one
 * ECI link, full ECI, FPGA DRAM) and the PCIe-card point are measured
 * on the simulated substrates.
 */

#include "bench_common.hh"

#include "platform/link_models.hh"

using namespace enzian;
using namespace enzian::bench;

namespace {

/**
 * FPGA-local DRAM transfer (the "Enzian DRAM" point). It runs on the
 * FPGA's queue, which owns the FPGA DRAM in domain mode.
 */
TransferFn
fpgaDramTransfer(platform::EnzianMachine &m)
{
    return [&m](std::uint64_t bytes, std::function<void(Tick)> done) {
        EventQueue &eq = m.fpgaEventq();
        const Tick ready = m.fpgaMem().dram().access(eq.now(), bytes);
        eq.schedule(ready, [done = std::move(done), ready]() {
            done(ready);
        });
    };
}

void
row(BenchReport &rep, const char *key, const char *name, double lat_us,
    double bw_gib, bool reference)
{
    std::printf("%-28s %10.2f %10.1f   %s\n", name, lat_us, bw_gib,
                reference ? "(cited reference)" : "(measured here)");
    if (!reference) {
        rep.add(std::string(key) + "_latency_us", lat_us);
        rep.add(std::string(key) + "_bw_gib", bw_gib);
    }
}

} // namespace

int
main()
{
    header("Figure 3: CPU-FPGA landscape, latency vs bandwidth");
    BenchReport rep("fig03_platform_landscape");
    std::printf("%-28s %10s %10s\n", "platform", "lat_us", "BW_GiB/s");

    for (const auto &p : platform::fig3ReferencePoints())
        row(rep, "", p.name.c_str(), p.latency_us, p.bandwidth_gib,
            true);

    // Enzian, one ECI link.
    {
        auto cfg = platform::enzianDefaultConfig();
        cfg.policy = eci::BalancePolicy::SingleLink;
        auto m = makeBenchMachine(cfg);
        const double lat =
            measureLatencyUs(*m, 128, eciTransfer(*m, false));
        auto m2 = makeBenchMachine(cfg);
        const double bw = measureThroughputGiB(
            *m2, 16384, 300, 8, eciTransfer(*m2, true));
        row(rep, "enzian_1link", "Enzian (1 ECI link)", lat, bw,
            false);
    }
    // Enzian, full ECI (both links, hardware-style balancing).
    {
        auto cfg = platform::enzianDefaultConfig();
        cfg.policy = eci::BalancePolicy::LeastLoaded;
        auto m = makeBenchMachine(cfg);
        const double lat =
            measureLatencyUs(*m, 128, eciTransfer(*m, false));
        auto m2 = makeBenchMachine(cfg);
        const double bw = measureThroughputGiB(
            *m2, 16384, 300, 8, eciTransfer(*m2, true));
        row(rep, "enzian_full_eci", "Enzian (full ECI)", lat, bw,
            false);
    }
    // Enzian FPGA-side DRAM.
    {
        auto m = makeBenchMachine(platform::enzianDefaultConfig());
        const double lat =
            measureLatencyUs(*m, 128, fpgaDramTransfer(*m));
        auto m2 = makeBenchMachine(platform::enzianDefaultConfig());
        const double bw = measureThroughputGiB(
            *m2, 1 << 20, 100, 4, fpgaDramTransfer(*m2));
        row(rep, "enzian_dram", "Enzian DRAM", lat, bw, false);
    }
    // Measured PCIe card for scale (Alveo u250, Gen3 x16).
    {
        auto sys = platform::makePcieAccelerator("alveo-u250");
        const double lat =
            measureLatencyUs(*sys.eq, 128, dmaTransfer(sys, false));
        auto sys2 = platform::makePcieAccelerator("alveo-u250");
        const double bw = measureThroughputGiB(*sys2.eq, 1 << 20, 100,
                                               4,
                                               dmaTransfer(sys2, true));
        row(rep, "alveo_u250_pcie", "Alveo u250 PCIe (measured)",
            lat, bw, false);
    }
    std::printf("\nShape check: Enzian's coherent link sits in the "
                "sub-microsecond latency regime of QPI/UPI systems\n"
                "while sustaining PCIe-class (or better) bandwidth, "
                "and the full fabric roughly doubles one link.\n");
    return 0;
}
