/**
 * @file
 * Serving-workload capacity: SLO knees for the three services.
 *
 * Runs the enzload saturation sweep (open-loop Poisson arrivals,
 * fresh testbed per operating point) against GBDT inference, RDMA
 * reads from FPGA DRAM, and TCP echo between the host and FPGA
 * stacks, and reports per service the knee — the highest offered load
 * whose p99 still meets the SLO — plus the light-load p99 headroom.
 * Emits BENCH_serving_slo.json; the CI floor guards both families of
 * metrics, so a latency regression anywhere on the serving path shows
 * up as a lower knee.
 */

#include "bench_common.hh"

#include "load/testbed.hh"

using namespace enzian;
using namespace enzian::bench;

int
main()
{
    header("Serving SLO knees (open-loop Poisson, p99 <= SLO)");
    BenchReport rep("serving_slo");

    struct Row
    {
        load::ServiceKind service;
        double slo_us;
    };
    // TCP echo pays two software stacks per request, so its SLO is
    // looser than the all-hardware services'.
    const Row rows[] = {
        {load::ServiceKind::Gbdt, 1000.0},
        {load::ServiceKind::Rdma, 500.0},
        {load::ServiceKind::Tcp, 2000.0},
    };

    std::printf("%-8s %12s %12s %12s %10s\n", "service",
                "knee (krps)", "light p99", "SLO (us)", "headroom");
    for (const Row &row : rows) {
        load::SweepConfig cfg;
        cfg.testbed.service = row.service;
        cfg.testbed.threads = envThreads();
        cfg.duration = units::ms(20.0);
        cfg.window = units::ms(5.0);
        cfg.slo_latency_us = row.slo_us;
        cfg.auto_points = 6;
        const load::SweepResult r = load::runSweep(cfg);
        if (r.knee < 0)
            fatal("serving_slo: no %s operating point met the SLO",
                  load::toString(row.service));

        const double light_p99 = r.points.front().p99_us;
        const double headroom = row.slo_us / light_p99;
        std::printf("%-8s %12.1f %12.1f %12.0f %9.1fx\n",
                    load::toString(row.service), r.knee_rps / 1e3,
                    light_p99, row.slo_us, headroom);

        const std::string svc = load::toString(row.service);
        rep.add(svc + "_knee_krps", r.knee_rps / 1e3);
        rep.add(svc + "_light_p99_headroom", headroom);
    }
    return 0;
}
