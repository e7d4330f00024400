/**
 * @file
 * enzchaos: run a fault-injection chaos scenario from the command
 * line and report what was injected and what recovered.
 *
 * Loads a FaultPlan from a text spec (or generates one from a seed),
 * runs the shared chaos scenario — a small Enzian machine, sharded
 * into a CPU and an FPGA timing domain, under randomized coherent,
 * TCP and RDMA traffic with the invariant monitor attached — and
 * dumps per-fault injection/recovery counts. Every fault kind runs at
 * every thread count, and the output is the same for all of them.
 * Exits non-zero if any invariant was violated, any acked write read
 * back wrong, or any traffic failed to complete.
 *
 * Usage:
 *   enzchaos --plan FILE         run the plan in FILE
 *   enzchaos --seed N            run FaultPlan::random(N)
 *   enzchaos --ops N             coherent line ops (default 400)
 *   enzchaos --lines N           lines per pool (default 32)
 *   enzchaos --traffic-seed N    traffic stream seed (default: plan seed)
 *   enzchaos --no-net            skip TCP side traffic
 *   enzchaos --no-rdma           skip RDMA side traffic
 *   enzchaos --with-bmc          attach the BMC for rail glitches
 *   enzchaos --threads N         run the timing domains on N threads
 *                                (default 1, or ENZIAN_THREADS)
 *   enzchaos --dump-plan         print the effective plan and exit
 *   enzchaos --json [FILE]       also dump the full stats registry JSON
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "fault/chaos_scenario.hh"
#include "fault/fault_plan.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: enzchaos [--plan FILE | --seed N] [--ops N] "
                 "[--lines N]\n"
                 "                [--traffic-seed N] [--no-net] "
                 "[--no-rdma] [--with-bmc]\n"
                 "                [--protocol NAME] [--threads N] "
                 "[--dump-plan] [--json [FILE]]\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 0);
    if (!end || *end) {
        std::fprintf(stderr, "enzchaos: bad %s '%s'\n", what, s);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<fault::FaultPlan> plan;
    std::uint64_t seed = 1;
    bool have_seed = false;
    fault::ChaosConfig cfg;
    bool traffic_seed_set = false;
    bool dump_plan = false;
    bool want_json = false;
    std::string json_path;
    std::uint32_t threads = sim::envThreads(); // 0 runs as 1

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--plan") && i + 1 < argc) {
            std::string err;
            plan = fault::FaultPlan::parseFile(argv[++i], err);
            if (!plan) {
                std::fprintf(stderr, "enzchaos: %s\n", err.c_str());
                return 2;
            }
        } else if (!std::strcmp(arg, "--seed") && i + 1 < argc) {
            seed = parseU64(argv[++i], "seed");
            have_seed = true;
        } else if (!std::strcmp(arg, "--ops") && i + 1 < argc) {
            cfg.ops = static_cast<std::uint32_t>(
                parseU64(argv[++i], "ops"));
        } else if (!std::strcmp(arg, "--lines") && i + 1 < argc) {
            cfg.lines = static_cast<std::uint32_t>(
                parseU64(argv[++i], "lines"));
        } else if (!std::strcmp(arg, "--traffic-seed") &&
                   i + 1 < argc) {
            cfg.seed = parseU64(argv[++i], "traffic seed");
            traffic_seed_set = true;
        } else if (!std::strcmp(arg, "--protocol") && i + 1 < argc) {
            cfg.protocol = argv[++i];
        } else if (!std::strcmp(arg, "--no-net")) {
            cfg.with_net = false;
        } else if (!std::strcmp(arg, "--no-rdma")) {
            cfg.with_rdma = false;
        } else if (!std::strcmp(arg, "--with-bmc")) {
            cfg.with_bmc = true;
        } else if (!std::strcmp(arg, "--threads") && i + 1 < argc) {
            threads = static_cast<std::uint32_t>(
                parseU64(argv[++i], "threads"));
        } else if (!std::strcmp(arg, "--dump-plan")) {
            dump_plan = true;
        } else if (!std::strcmp(arg, "--json")) {
            want_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else {
            usage();
        }
    }

    if (!plan)
        plan = fault::FaultPlan::random(have_seed ? seed : 1);
    if (!traffic_seed_set)
        cfg.seed = plan->seed;

    if (dump_plan) {
        std::fputs(plan->toString().c_str(), stdout);
        return 0;
    }

    std::printf("enzchaos: plan seed %llu, %zu fault(s); traffic seed "
                "%llu, %u ops x %u lines%s%s%s\n",
                static_cast<unsigned long long>(plan->seed),
                plan->faults.size(),
                static_cast<unsigned long long>(cfg.seed), cfg.ops,
                cfg.lines, cfg.with_net ? ", tcp" : "",
                cfg.with_rdma ? ", rdma" : "",
                cfg.with_bmc ? ", bmc" : "");
    for (const auto &s : plan->faults)
        std::printf("  %s\n", s.toString().c_str());

    const fault::ChaosResult r = fault::runChaos(*plan, cfg, threads);

    std::printf("\n%s\n", r.report.c_str());
    std::printf("ops: %llu issued, %llu completed\n",
                static_cast<unsigned long long>(r.opsIssued),
                static_cast<unsigned long long>(r.opsCompleted));

    if (want_json) {
        if (json_path.empty() || json_path == "-") {
            std::cout << r.registryJson;
        } else {
            std::ofstream f(json_path, std::ios::trunc);
            if (!f) {
                std::fprintf(stderr, "enzchaos: cannot open '%s'\n",
                             json_path.c_str());
                return 2;
            }
            f << r.registryJson;
            std::fprintf(stderr, "enzchaos: wrote %s\n",
                         json_path.c_str());
        }
    }

    if (!r.ok) {
        std::printf("\nFAIL: %zu violation(s)\n", r.violations.size());
        for (const auto &v : r.violations)
            std::printf("  %s\n", v.c_str());
        return 1;
    }
    std::printf("\nOK: no invariant violations, all writes readable, "
                "all traffic delivered\n");
    return 0;
}
