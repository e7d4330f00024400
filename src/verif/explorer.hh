/**
 * @file
 * Exhaustive breadth-first exploration of the abstract protocol model.
 *
 * Explores every state reachable from the initial states under the
 * configured Options, evaluating:
 *  - per-state invariants (SWMR, directory coverage, quiescent
 *    agreement — see invariants.hh);
 *  - per-transition invariants reported by the model itself (illegal
 *    protocol steps, silent dirty-data drops, unmatched responses);
 *  - deadlock freedom (a non-quiescent state must have a successor);
 *  - liveness: every reachable state can still reach a quiescent
 *    state (computed as a reverse fixpoint over the explored graph);
 *  - dirty-drain: every state holding a dirty remote copy can reach a
 *    quiescent state where that copy has moved home;
 *  - coverage: which stable (home, dir, remote) combinations occur in
 *    quiescent states, and which are unreachable.
 *
 * Options::lines > 1 explores the product of several lines sharing
 * the per-direction wires; Options::symmetry and Options::por enable
 * the (sound) line-permutation and partial-order reductions, and
 * Options::threads parallelises the level-synchronous BFS with
 * thread-count-independent results.
 *
 * BFS order means every counterexample trace is a shortest path —
 * exactly shortest without reductions; with symmetry/POR enabled the
 * trace is still a real run but may not be globally minimal.
 */

#ifndef ENZIAN_VERIF_EXPLORER_HH
#define ENZIAN_VERIF_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verif/model.hh"

namespace enzian::verif {

/** One invariant failure with a shortest witness run. */
struct Violation
{
    std::string what;
    /** State where it was detected. */
    std::string state;
    /** Transition labels from an initial state to @c state. */
    std::vector<std::string> trace;

    std::string toString() const;
};

/** Result of one exhaustive exploration. */
struct Report
{
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    /** Largest number of simultaneously in-flight messages seen. */
    std::size_t maxInFlight = 0;

    /** State- and transition-invariant failures. */
    std::vector<Violation> violations;
    /** Non-quiescent states with no enabled transition. */
    std::vector<Violation> deadlocks;
    /** States from which no quiescent state is reachable. */
    std::vector<Violation> livenessViolations;
    /** Dirty remote copies that can never drain home. */
    std::vector<Violation> dirtyTraps;

    /** "home/dir/remote" triples seen in quiescent states. */
    std::vector<std::string> stableReached;
    /** MOESI triples never seen quiescent (diagnostic, not an error). */
    std::vector<std::string> stableUnreached;

    bool clean() const
    {
        return violations.empty() && deadlocks.empty() &&
               livenessViolations.empty() && dirtyTraps.empty();
    }

    /** Multi-line human-readable summary. */
    std::string toString() const;
};

/**
 * Explore the full state space of @p opt.
 *
 * @param opt model configuration (ordering, uncached mode, mutation)
 * @param maxViolationsPerKind cap on reported failures per category
 *        (exploration itself always runs to completion)
 */
Report explore(const Options &opt,
               std::size_t maxViolationsPerKind = 16);

} // namespace enzian::verif

#endif // ENZIAN_VERIF_EXPLORER_HH
