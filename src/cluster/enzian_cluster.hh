/**
 * @file
 * A rack of Enzians (paper sections 3, 6).
 *
 * "One reason that Enzian has such large network bandwidth
 * (480 Gb/s) is to enable, e.g., many boards to be connected together
 * into a single, large multiprocessor (with or without cache
 * coherence)". EnzianCluster instantiates a ClusterTopology — the
 * rack is data, not code — cabling every machine's FPGA-side 100 GbE
 * ports into one switch; cluster services (replicated KV,
 * disaggregated memory, the coherence bridge) run on top.
 *
 * The rack always runs on one DomainScheduler: a network timing
 * domain (the switch fabric) plus each machine's CPU and FPGA
 * domains. Cross-machine frames ride CrossDomainChannels with the
 * epoch lookahead derived from the smallest ECI / Ethernet latency in
 * the rack (never hard-coded). Results are bit-identical at any
 * thread count, 1 included.
 *
 * Switch port convention: node i owns ports [topology().firstPort(i),
 * firstPort(i) + ports) — Enzian's FPGA exposes 4 x 100 GbE.
 */

#ifndef ENZIAN_CLUSTER_ENZIAN_CLUSTER_HH
#define ENZIAN_CLUSTER_ENZIAN_CLUSTER_HH

#include <memory>
#include <vector>

#include "cluster/topology.hh"
#include "net/switch.hh"
#include "platform/enzian_machine.hh"

namespace enzian::cluster {

/** N Enzians on a switch. */
class EnzianCluster
{
  public:
    /** Cluster configuration. */
    struct Config
    {
        /**
         * The rack description. When it has no nodes, a uniform
         * topology of `nodes` x `ports_per_node` is used instead
         * (the shorthand below).
         */
        ClusterTopology topology; ///< default: no nodes (see above)
        std::uint32_t nodes = 2;
        /** 100 GbE ports each node patches into the switch. */
        std::uint32_t ports_per_node = 4;
        /** Per-machine configuration template. */
        platform::EnzianMachine::Config node;
        /** Switch configuration (per-node latency overrides are
         *  derived from the topology on top of this). */
        net::Switch::Config network;
        /**
         * Threads the rack scheduler runs its domains on (0 means 1;
         * the simulation is the same at any count).
         */
        std::uint32_t threads = 1;
        /**
         * Adaptive epochs for the rack scheduler: grow past the fixed
         * step to the provable cross-domain delivery bound when the
         * rack is quiescent (see sim::DomainScheduler::Options).
         * Bit-identical results at any thread count either way.
         */
        bool adaptive_epochs = false;

        Config();
    };

    explicit EnzianCluster(const Config &cfg);
    ~EnzianCluster();

    EnzianCluster(const EnzianCluster &) = delete;
    EnzianCluster &operator=(const EnzianCluster &) = delete;

    net::Switch &network() { return *switch_; }

    /** The rack's scheduler; it runs every node's domains. */
    sim::DomainScheduler *scheduler() { return sched_.get(); }

    /** Run the whole rack to completion. @return events executed. */
    std::uint64_t run();
    /** Run the whole rack up to @p limit. @return events executed. */
    std::uint64_t runUntil(Tick limit);

    const ClusterTopology &topology() const { return topo_; }

    std::uint32_t nodeCount() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }
    platform::EnzianMachine &node(std::uint32_t i)
    {
        return *nodes_.at(i);
    }

    /** Switch port @p link of node @p i. */
    std::uint32_t portOf(std::uint32_t i, std::uint32_t link = 0) const
    {
        return topo_.portOf(i, link);
    }

    const Config &config() const { return cfg_; }

    /**
     * The epoch lookahead a rack with this configuration derives:
     * min over the ECI link floor and every switch port's Ethernet
     * latency floor. Exposed so benches can report it.
     */
    static Tick deriveLookahead(const Config &cfg,
                                const ClusterTopology &topo);

  private:
    /** Switch config with per-port latencies from the topology. */
    static net::Switch::Config
    resolveNetwork(const Config &cfg, const ClusterTopology &topo);

    Config cfg_;
    ClusterTopology topo_;
    /** Declared before every component so domain queues die last. */
    std::unique_ptr<sim::DomainScheduler> sched_;
    std::vector<std::unique_ptr<platform::EnzianMachine>> nodes_;
    std::unique_ptr<net::Switch> switch_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_ENZIAN_CLUSTER_HH
