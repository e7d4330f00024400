/**
 * @file
 * Reusable chaos scenario: a small Enzian machine under a FaultPlan.
 *
 * Drives randomized coherent traffic (cached remote writes, home-local
 * writes that force invalidations, uncached remote stores) plus
 * optional TCP, RDMA and BMC side traffic against a machine with a
 * FaultInjector armed and the coherence invariant monitor attached.
 * After the machine drains, every acked write is read back through
 * the line's home agent and compared byte-for-byte, the caches are
 * flushed, and the monitor's machine-wide invariants are checked.
 *
 * The machine always runs as a CPU and an FPGA timing domain, with
 * every fault kind and all side traffic: the TCP pair and the BMC in
 * the CPU domain, the RDMA pair (and its own switch) in the FPGA
 * domain next to the FPGA DRAM it serves. FPGA-side coherent issues
 * and their completions cross through the scheduler's channels, and
 * per-domain results merge after the run in a fixed order, so the
 * result — including the registry export — is bit-identical for
 * every thread count.
 *
 * Shared by the chaos soak test (tests/test_fault_chaos.cc) and the
 * enzchaos CLI.
 */

#ifndef ENZIAN_FAULT_CHAOS_SCENARIO_HH
#define ENZIAN_FAULT_CHAOS_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"

namespace enzian::fault {

/** Scenario knobs. */
struct ChaosConfig
{
    /** Traffic stream seed (independent of the plan seed). */
    std::uint64_t seed = 1;
    /** Coherent line operations to issue. */
    std::uint32_t ops = 400;
    /** Lines per pool (three pools: cached, snooped, uncached). */
    std::uint32_t lines = 32;
    /** Run TCP side traffic (with loss faults if planned). */
    bool with_net = true;
    /** Run RDMA side traffic (with drop faults if planned). */
    bool with_rdma = true;
    /** Attach the BMC for rail glitches (slow: ~100 ms sim time). */
    bool with_bmc = false;
    /**
     * Coherence protocol the machine under chaos runs (any name from
     * eci::proto::allProtocols()); unknown names are fatal.
     */
    std::string protocol = "moesi";
};

/** Scenario outcome. */
struct ChaosResult
{
    bool ok = false;
    /** Invariant violations + data-integrity mismatches. */
    std::vector<std::string> violations;
    std::uint64_t opsIssued = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t faultsInjected = 0;
    /** The injector's per-kind summary. */
    std::string report;
    /**
     * Full obs::Registry JSON captured while the machine was alive;
     * the determinism regression compares two runs byte-for-byte.
     */
    std::string registryJson;
};

/**
 * Run one chaos scenario to completion on @p threads threads (0 runs
 * as 1; every count gives the same result).
 */
ChaosResult runChaos(const FaultPlan &plan, const ChaosConfig &cfg,
                     std::uint32_t threads = 1);

} // namespace enzian::fault

#endif // ENZIAN_FAULT_CHAOS_SCENARIO_HH
