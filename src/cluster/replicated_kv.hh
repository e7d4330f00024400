/**
 * @file
 * RDMA-backed replicated key-value store spanning machines.
 *
 * The first real distributed workload on the rack (paper section 6:
 * the network bandwidth exists so "many boards [can] be connected
 * together into a single, large multiprocessor"). Values live in
 * fixed-size slots replicated on a primary plus K replica nodes; every
 * store node serves its slice through an RdmaTarget over one of the
 * machine's memory paths:
 *
 *  - "dram":     the FPGA's own DDR4 (DirectDramPath);
 *  - "eci-host": CPU host memory over coherent ECI (EciHostPath);
 *  - "pcie-host": CPU host memory via PCIe DMA (PcieHostPath; the
 *    DMA engine runs in the FPGA domain and its host-memory half in
 *    the CPU domain, across the PCIe link latency).
 *
 * Writes fan out from the client's initiator to the primary and every
 * replica with per-replica ack tracking: the put completes when the
 * last replica acknowledged (all-ack durability). Reads go to the
 * nearest replica by topology distance — a client co-located with a
 * replica reads straight through the memory path, no network at all.
 * With a recovery timeout configured, lost RDMA frames (enzchaos
 * drops) are retried under fresh attempt ids, so read-your-writes holds
 * under faults.
 */

#ifndef ENZIAN_CLUSTER_REPLICATED_KV_HH
#define ENZIAN_CLUSTER_REPLICATED_KV_HH

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/enzian_cluster.hh"
#include "net/rdma_engine.hh"
#include "pcie/dma_engine.hh"
#include "pcie/pcie_link.hh"

namespace enzian::cluster {

/** Replicated KV store over a cluster (see file comment). */
class ReplicatedKv
{
  public:
    using Done = std::function<void(Tick)>;

    /** Store configuration. */
    struct Config
    {
        /** Node hosting the primary copy. */
        std::uint32_t primary = 0;
        /** Replica nodes (excluding the primary). */
        std::vector<std::uint32_t> replicas;
        /** Value placement: "dram", "eci-host", "pcie-host". */
        std::string placement = "dram";
        /** Number of fixed-size value slots. */
        std::uint64_t slots = 1024;
        /** Bytes per value slot (eci-host placement needs a multiple
         *  of the 128-byte ECI cache line). */
        std::uint32_t value_bytes = 128;
        /** Base offset of the slot region in each store's path. */
        Addr region_base = 0;
        /** Node link used by each store's RdmaTarget. */
        std::uint32_t target_link = 2;
        /** Node link used by each client's RdmaInitiator. */
        std::uint32_t client_link = 3;
        /**
         * > 0 arms initiator timeout/retry recovery (us) — required
         * before injecting RDMA drops anywhere on the path.
         */
        double timeout_us = 0.0;
        std::uint32_t max_retries = 12;
    };

    /**
     * Build the store over @p cluster. Every node gets a client
     * initiator; the primary and replica nodes get serving targets.
     * The slot region must fit the chosen placement's memory.
     */
    ReplicatedKv(std::string name, EnzianCluster &cluster,
                 const Config &cfg);
    ~ReplicatedKv();

    ReplicatedKv(const ReplicatedKv &) = delete;
    ReplicatedKv &operator=(const ReplicatedKv &) = delete;

    /**
     * Derive a Config from a `service kind=kv` topology entry.
     * Recognized params: replicas=K (count, placed round-robin after
     * the primary), placement=..., slots=N, value_bytes=B,
     * timeout_us=T. @p topo supplies the node count.
     */
    static Config configFromService(const ServiceDesc &svc,
                                    const ClusterTopology &topo);

    /**
     * Write @p value (value_bytes long) under @p key from
     * @p client_node: fans out to the primary and every replica,
     * completes when the LAST store acknowledged.
     */
    void put(std::uint32_t client_node, std::uint64_t key,
             const std::uint8_t *value, Done done);

    /**
     * Read @p key's value into @p out (value_bytes long) from the
     * replica nearest to @p client_node.
     */
    void get(std::uint32_t client_node, std::uint64_t key,
             std::uint8_t *out, Done done);

    /** Store index (into stores) nearest to @p client_node. */
    std::uint32_t nearestStore(std::uint32_t client_node) const;

    /** Number of store copies (primary + replicas). */
    std::uint32_t storeCount() const
    {
        return static_cast<std::uint32_t>(stores_.size());
    }
    /** Node hosting store copy @p s. */
    std::uint32_t storeNode(std::uint32_t s) const
    {
        return stores_.at(s)->node;
    }
    /** The serving target of store copy @p s (fault injection). */
    net::RdmaTarget &target(std::uint32_t s)
    {
        return *stores_.at(s)->target;
    }
    /** The client initiator of @p node (fault injection). */
    net::RdmaInitiator &initiator(std::uint32_t node)
    {
        return *initiators_.at(node);
    }

    std::uint64_t puts() const { return puts_.value(); }
    std::uint64_t gets() const { return gets_.value(); }
    std::uint64_t replicaAcks() const { return replicaAcks_.value(); }
    std::uint64_t localReads() const { return localReads_.value(); }
    std::uint64_t remoteReads() const { return remoteReads_.value(); }

    const Config &config() const { return cfg_; }

  private:
    /** One store copy: its node, memory path and serving target. */
    struct Store
    {
        std::uint32_t node = 0;
        std::uint32_t port = 0;
        // pcie-host placement only:
        std::unique_ptr<pcie::PcieLink> pcieLink;
        std::unique_ptr<pcie::DmaEngine> pcieDma;
        std::unique_ptr<net::MemoryPath> path;
        std::unique_ptr<net::RdmaTarget> target;
    };

    Addr slotOffset(std::uint64_t key) const;
    std::unique_ptr<Store> makeStore(std::uint32_t node);

    EnzianCluster &cluster_;
    Config cfg_;
    StatGroup stats_;
    std::vector<std::unique_ptr<Store>> stores_;
    /** One client initiator per cluster node, indexed by node. */
    std::vector<std::unique_ptr<net::RdmaInitiator>> initiators_;
    /**
     * Ops may be issued/completed from any machine's timing domain;
     * the counters are commutative sums, so the exported values stay
     * bit-identical at any thread count — the mutex only keeps the
     * increments race-free.
     */
    mutable std::mutex mu_;
    Counter puts_;
    Counter gets_;
    Counter replicaAcks_;
    Counter localReads_;
    Counter remoteReads_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_REPLICATED_KV_HH
