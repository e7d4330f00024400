/**
 * @file
 * ECI remote agent: the requester-side protocol engine of one node.
 *
 * Issues coherent line reads/writes against memory homed at the peer
 * node, optionally caching the results in an attached local cache
 * (the CPU's L2 caches FPGA-homed memory this way; the FPGA usually
 * runs uncached, as none of the paper's use-cases implement a
 * significant FPGA cache). Also carries uncached I/O accesses and
 * IPIs, and answers snoops from the peer's home agent.
 *
 * The number of outstanding transactions is bounded (hardware MSHRs);
 * additional operations queue, which is what shapes the throughput of
 * small-transfer pipelining in Figure 6.
 */

#ifndef ENZIAN_ECI_REMOTE_AGENT_HH
#define ENZIAN_ECI_REMOTE_AGENT_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "base/flat_map.hh"
#include "cache/cache.hh"
#include "eci/eci_link.hh"
#include "eci/protocol_table.hh"
#include "mem/address_map.hh"

namespace enzian::eci {

class HomeAgent;

/** The requester-side protocol engine of one node. */
class RemoteAgent : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;
    using IoDone = std::function<void(Tick, std::uint64_t)>;

    /** Configuration. */
    struct Config
    {
        /** Maximum in-flight coherent transactions (MSHRs). */
        std::uint32_t max_outstanding = 32;
        /** Local cache hit latency (ns) when a cache is attached. */
        double hit_latency_ns = 12.0;
    };

    RemoteAgent(std::string name, EventQueue &eq, mem::NodeId node,
                const mem::AddressMap &map, EciFabric &fabric,
                const Config &cfg);

    /** Construct with default configuration. */
    RemoteAgent(std::string name, EventQueue &eq, mem::NodeId node,
                const mem::AddressMap &map, EciFabric &fabric);

    /** Attach a local cache; cached ops allocate into it. */
    void attachCache(cache::Cache *c) { cache_ = c; }

    /** Select the coherence protocol table (default: shipped MOESI).
     *  Must match the home agents'; switch only while idle. */
    void setProtocol(const proto::ProtocolTable *table)
    {
        table_ = table;
    }

    /** The active protocol table. */
    const proto::ProtocolTable &protocol() const { return *table_; }

    /**
     * Turn on the loss-recovery path: every request keeps a resend
     * copy and a retry timer with exponential backoff; a lost request
     * or response is re-sent with the SAME tid (the home deduplicates
     * and replays its response). Off by default — the happy path pays
     * one null pointer per transaction.
     *
     * @param timeout_us initial retry timeout (should exceed the
     *        worst-case request round trip)
     * @param max_retries livelock guard: panic past this many retries
     */
    void enableRecovery(double timeout_us,
                        std::uint32_t max_retries = 16);

    /**
     * Coherent cached read of a peer-homed line. On a local hit the
     * callback runs after the hit latency; on a miss an RLDD fetches
     * and allocates the line.
     *
     * @param line line-aligned address homed at the peer
     * @param out optional 128-byte destination (may be nullptr)
     * @param done completion callback with the data-ready tick
     */
    void readLine(Addr line, std::uint8_t *out, Done done);

    /** Coherent cached full-line write (obtains exclusivity first). */
    void writeLine(Addr line, const std::uint8_t *data, Done done);

    /** Uncached coherent read (RLDI): no local allocation. */
    void readLineUncached(Addr line, std::uint8_t *out, Done done);

    /** Uncached coherent full-line write (RSTT). */
    void writeLineUncached(Addr line, const std::uint8_t *data,
                           Done done);

    /** Uncached I/O read in the peer's I/O window. */
    void ioRead(Addr offset, std::uint32_t len, IoDone done);

    /** Uncached I/O write in the peer's I/O window. */
    void ioWrite(Addr offset, std::uint64_t data, std::uint32_t len,
                 Done done);

    /** Fire an inter-processor interrupt at the peer. */
    void sendIpi(std::uint32_t vector);

    /**
     * Write back all dirty peer-homed lines and drop clean ones.
     * @param done runs when every writeback has been acknowledged.
     */
    void flushAll(Done done);

    /** Entry point for responses and snoops addressed to this node. */
    void handle(const EciMsg &msg);

    /** Currently in-flight coherent transactions. */
    std::size_t outstanding() const { return txns_.size(); }

    std::uint64_t hitsLocal() const { return hits_.value(); }
    std::uint64_t requestsSent() const { return reqs_.value(); }
    /** Requests re-sent after a timeout (recovery mode). */
    std::uint64_t retriesSent() const { return retries_.value(); }
    /** Responses for already-completed tids ignored (recovery mode). */
    std::uint64_t duplicateResponses() const { return dupRsps_.value(); }

  private:
    enum class Kind : std::uint8_t {
        CachedRead,
        CachedWriteMiss,
        Upgrade,
        UncachedRead,
        UncachedWrite,
        WriteBack,
        Evict,
        Io,
    };

    struct Txn
    {
        Kind kind;
        Addr line = 0;
        std::uint8_t *out = nullptr;
        std::vector<std::uint8_t> data; // write payload
        Done done;
        IoDone iodone;
        bool invalAfterFill = false; // SINV raced with our fill
        Tick start = 0;              // request issue tick
        Opcode op = Opcode::RLDD;    // request opcode (span label)
        /** Resend copy + retry timer; populated in recovery mode
         *  only, so the default path stays one pointer wide. */
        std::unique_ptr<EciMsg> resend;
        EventId retryEv = 0;
        std::uint32_t attempts = 0;
    };

    /** Launch an operation needing an MSHR slot now if one is free
     *  (no std::function is built then), else queue it. */
    template <typename Op>
    void submit(Op &&op);
    /** Release one slot and launch a queued op if any. */
    void releaseSlot();

    /**
     * Same-line merging: a cached operation that would change a
     * line's state while another transaction for that line is in
     * flight is parked and re-executed when the transaction
     * completes (hardware MSHRs coalesce such requests; issuing two
     * upgrades for one line is a protocol violation).
     */
    bool lineBusy(Addr line) const { return busyLines_.contains(line); }
    /** Mark @p line busy. @return false if it already was. */
    bool markLineBusy(Addr line) { return busyLines_.insert(line).second; }
    void releaseLine(Addr line);
    void parkOnLine(Addr line, std::function<void()> retry);

    std::uint32_t newTid();
    void sendRequest(Opcode op, Addr line, Txn txn,
                     const std::uint8_t *payload = nullptr);
    /** Record @p txn under @p msg's tid, send @p msg, and arm its
     *  retry timer in recovery mode. */
    void issue(const EciMsg &msg, Txn txn);
    /**
     * Remove and return the transaction @p rsp answers, cancelling its
     * retry timer. In recovery mode a response for an already
     * completed tid is counted and yields nothing.
     */
    std::optional<Txn> takeTxn(const EciMsg &rsp);
    /** (Re-)arm the retry timer of transaction @p tid. */
    void armRetry(std::uint32_t tid);
    void onRetryTimeout(std::uint32_t tid);
    /** Record RTT stats and the request span for a finished txn. */
    void recordCompletion(const Txn &txn);
    void completeFill(const EciMsg &msg);
    void handleSnoop(const EciMsg &msg);
    /** Dispose of a victim line evicted by a fill. */
    void handleEviction(const cache::Eviction &ev);

    mem::NodeId node_;
    mem::NodeId peer_;
    const mem::AddressMap &map_;
    EciFabric &fabric_;
    const proto::ProtocolTable *table_ = &proto::moesiProtocol();
    Config cfg_;
    cache::Cache *cache_ = nullptr;

    std::uint32_t nextTid_ = 1;
    FlatMap<std::uint32_t, Txn> txns_;
    std::deque<std::function<void()>> waiting_;
    FlatSet<Addr> busyLines_;
    std::unordered_map<Addr, std::deque<std::function<void()>>>
        lineWaiters_;

    /** Retry timeout; 0 = recovery off. */
    Tick retryTimeout_ = 0;
    std::uint32_t maxRetries_ = 16;

    Counter hits_;
    Counter reqs_;
    /** Requests NAKed by the home and retried. */
    Counter pnaks_;
    /** Timeout-driven retransmissions (recovery mode). */
    Counter retries_;
    /** Duplicate responses ignored (recovery mode). */
    Counter dupRsps_;
    /** Request-to-completion round trip, ns. */
    Accumulator rtt_;
    /** In-flight transactions (MSHR occupancy), sampled per issue. */
    Accumulator outstanding_;
};

/**
 * Route a delivered ECI message to the right engine of the receiving
 * node: requests, snoop responses, I/O requests and IPIs go to the
 * home agent; grants, acks, I/O completions and snoops go to the
 * remote agent. Install as the fabric receiver for the node.
 */
void dispatch(HomeAgent &home, RemoteAgent &remote, const EciMsg &msg);

} // namespace enzian::eci

#endif // ENZIAN_ECI_REMOTE_AGENT_HH
