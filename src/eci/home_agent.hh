/**
 * @file
 * ECI home agent: the directory-side protocol engine of one node.
 *
 * Each Enzian node (CPU and FPGA) is home for its statically
 * partitioned share of the physical address space. The home agent
 * serves coherent requests from the remote node, tracks the remote
 * node's MOESI state per line in a directory, snoops the local cache,
 * and sources line data.
 *
 * Line data normally comes from the node's DRAM, but the source is
 * pluggable: the paper's "FPGA as a custom memory controller"
 * use-case (section 5.4, Figure 10) installs a transform that turns
 * an incoming RLDD refill request into a larger sequential DRAM burst
 * plus a data-reduction computation, returning the packed result as
 * the PEMD payload. The pipeline is invisible to the CPU beyond an
 * increase in latency.
 */

#ifndef ENZIAN_ECI_HOME_AGENT_HH
#define ENZIAN_ECI_HOME_AGENT_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "base/flat_map.hh"
#include "cache/cache.hh"
#include "eci/eci_link.hh"
#include "eci/io_space.hh"
#include "eci/protocol_table.hh"
#include "mem/memory_controller.hh"

namespace enzian::eci {

/**
 * Source of line data at a home node. Implementations must be
 * functional (really produce/accept bytes) and timed (deliver the
 * tick the data is ready/durable through the completion callback).
 * The callback may run synchronously (a DRAM source computes its
 * timing immediately) or after arbitrarily many events (the
 * cluster-level coherence bridge performs a network round trip).
 */
class LineSource
{
  public:
    using Done = std::function<void(Tick)>;

    virtual ~LineSource() = default;

    /**
     * Produce the 128-byte line at @p addr into @p out; @p out must
     * stay valid until @p done runs.
     * @param when tick the request reaches the source
     */
    virtual void readLine(Tick when, Addr addr, std::uint8_t *out,
                          Done done) = 0;

    /**
     * Accept a full-line write; @p data is copied before return if
     * needed beyond the call.
     */
    virtual void writeLine(Tick when, Addr addr,
                           const std::uint8_t *data, Done done) = 0;

    /**
     * True if writes may be acknowledged as soon as the home engine
     * accepts them (a local DRAM behind a store buffer). Sources that
     * are a network away return false so the protocol ack carries the
     * true durability point.
     */
    virtual bool posted() const { return true; }
};

/** Default LineSource backed by the node's memory controller. */
class DramLineSource : public LineSource
{
  public:
    DramLineSource(mem::MemoryController &mc, const mem::AddressMap &map);

    void readLine(Tick when, Addr addr, std::uint8_t *out,
                  Done done) override;
    void writeLine(Tick when, Addr addr, const std::uint8_t *data,
                   Done done) override;

  private:
    mem::MemoryController &mc_;
    const mem::AddressMap &map_;
};

/** The home-side protocol engine of one node. */
class HomeAgent : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;

    /**
     * @param node which node this agent belongs to
     * @param map the machine's static address partition
     * @param mc this node's memory controller
     * @param fabric the ECI link pair
     */
    HomeAgent(std::string name, EventQueue &eq, mem::NodeId node,
              const mem::AddressMap &map, mem::MemoryController &mc,
              EciFabric &fabric);

    /** Replace the line data source (nullptr restores DRAM). */
    void setLineSource(LineSource *src);

    /** Attach the home node's own cache, snooped for local copies. */
    void attachLocalCache(cache::Cache *c) { localCache_ = c; }

    /**
     * Read-allocate policy for the local cache: when on, local reads
     * whose data came from memory or a remote forward also install
     * the line locally as Shared, so later upgrades find a resident
     * home copy (the state write-update protocols exploit). Only
     * allocates into a free frame — the home agent never forces an
     * eviction it would have to write back. Off by default: reference
     * timing runs stay untouched.
     */
    void setReadAllocate(bool on) { readAllocate_ = on; }

    /** Select the coherence protocol table (default: shipped MOESI).
     *  Must match the remote agents'; switch only while idle. */
    void setProtocol(const proto::ProtocolTable *table)
    {
        table_ = table;
    }

    /** The active protocol table. */
    const proto::ProtocolTable &protocol() const { return *table_; }

    /** Attach the node's uncached I/O space. */
    void attachIoSpace(IoSpace *io) { ioSpace_ = io; }

    /** Set the IPI delivery handler (vector number argument). */
    void setIpiHandler(std::function<void(std::uint32_t)> h);

    /**
     * Turn on the loss-recovery path: duplicate requests are detected
     * and answered from a bounded reply cache (requesters retry with
     * the same tid), and outgoing snoops are retried with exponential
     * backoff until their response arrives. Off by default — the
     * happy path pays nothing.
     *
     * @param snoop_timeout_us initial snoop retry timeout
     * @param max_retries livelock guard: panic past this many retries
     */
    void enableRecovery(double snoop_timeout_us,
                        std::uint32_t max_retries = 16);

    /** Entry point for messages addressed to this node's home side. */
    void handle(const EciMsg &msg);

    /**
     * Coherent read by this node's own cores/engines. Snoops the
     * remote node if it holds the line M/E/O, then delivers the data.
     *
     * @param line line-aligned address homed at this node
     * @param out 128-byte buffer filled before @p done runs
     * @param done completion callback with the data-ready tick
     */
    void localRead(Addr line, std::uint8_t *out, Done done);

    /** Coherent full-line write by this node's own cores/engines. */
    void localWrite(Addr line, const std::uint8_t *data, Done done);

    /** Directory state the remote node holds for @p line. */
    cache::MoesiState remoteState(Addr line) const;

    std::uint64_t requestsServed() const { return served_.value(); }
    std::uint64_t snoopsSent() const { return snoops_.value(); }
    /** Responses replayed from the reply cache (recovery mode). */
    std::uint64_t responsesReplayed() const { return replays_.value(); }
    /** Duplicate requests dropped while the original was in flight. */
    std::uint64_t duplicateRequests() const { return dupReqs_.value(); }
    /** Snoops re-sent after a timeout (recovery mode). */
    std::uint64_t snoopRetries() const { return snoopRetries_.value(); }
    /** Duplicate snoop responses ignored (recovery mode). */
    std::uint64_t duplicateSnoopResponses() const
    {
        return dupSnoopRsps_.value();
    }

  private:
    struct PendingSnoop
    {
        Addr line;
        bool invalidate;
        Done done;
        std::uint8_t *out;               // localRead destination
        std::vector<std::uint8_t> wdata; // localWrite payload
        /** Copy of the snoop for retransmission (recovery mode). */
        EciMsg msg{};
        EventId retryEv = 0;
        std::uint32_t attempts = 0;
    };

    void process(const EciMsg &msg);
    void handleRequest(const EciMsg &msg);
    bool isDuplicateRequest(const EciMsg &msg);
    void recordResponse(const EciMsg &msg);
    void armSnoopRetry(std::uint32_t tid);
    void finishLine(Addr line);
    /**
     * Per-line transaction serialization: remote requests AND
     * home-local accesses for a line execute one at a time; a busy
     * line queues @p retry to re-attempt when the current transaction
     * finishes. Serializing local accesses too closes the
     * upgrade-vs-snoop races a concurrent home would have to handle
     * with NAK/retry machinery.
     */
    bool acquireLine(Addr line, std::function<void()> retry);

    /** Install @p data locally as Shared if read-allocate permits. */
    void maybeAllocateLocal(Addr line, const std::uint8_t *data);

    /** The local cache's copy of @p line (empty if none or no cache). */
    cache::LineHandle localLine(Addr line) const
    {
        return localCache_ ? localCache_->lookup(line)
                           : cache::LineHandle{};
    }

    void serveRead(const EciMsg &msg, bool exclusive, bool allocate);
    void serveUncachedWrite(const EciMsg &msg);
    void serveUpgrade(const EciMsg &msg);
    void serveWriteBack(const EciMsg &msg);
    void handleSnoopResponse(const EciMsg &msg);
    void serveIo(const EciMsg &msg);

    /** Send @p msg once @p when arrives. */
    void sendAt(Tick when, const EciMsg &msg);

    /**
     * Record one served request for stats and span tracing: @p t_req
     * is the arrival tick, @p done_at the tick the response leaves.
     */
    void recordService(const char *op, Tick t_req, Tick done_at);

    mem::NodeId node_;
    mem::NodeId peer_;
    const mem::AddressMap &map_;
    mem::MemoryController &mc_;
    EciFabric &fabric_;
    DramLineSource defaultSource_;
    LineSource *source_;
    cache::Cache *localCache_ = nullptr;
    bool readAllocate_ = false;
    IoSpace *ioSpace_ = nullptr;
    const proto::ProtocolTable *table_ = &proto::moesiProtocol();
    std::function<void(std::uint32_t)> ipiHandler_;

    /** Remote node's directory state per line (absent = Invalid). */
    FlatMap<Addr, cache::MoesiState> dir_;
    /** Lines with a transaction in flight; arrivals queue behind. */
    FlatSet<Addr> busy_;
    std::unordered_map<Addr, std::deque<std::function<void()>>>
        deferred_;
    /** Outstanding local-access snoops by tid. */
    std::unordered_map<std::uint32_t, PendingSnoop> pendingSnoops_;
    std::uint32_t nextSnoopTid_ = 1;

    /** Loss-recovery machinery; inert unless enableRecovery() ran. */
    bool recovery_ = false;
    Tick snoopTimeout_ = 0;
    std::uint32_t maxRetries_ = 16;
    /** Requests accepted but not yet answered (dedup set). */
    std::unordered_set<std::uint32_t> inflightReq_;
    /** Bounded LRU cache of sent responses, replayed on retries. */
    std::unordered_map<std::uint32_t, EciMsg> replay_;
    std::deque<std::uint32_t> replayOrder_;

    /** Directory lookup / pipeline latency of this engine. */
    Tick dirLatency_;

    Counter served_;
    Counter snoops_;
    Counter replays_;
    Counter dupReqs_;
    Counter snoopRetries_;
    Counter dupSnoopRsps_;
    /** Requests that found their line busy and had to queue. */
    Counter deferrals_;
    /** Arrival-to-response service time per request, ns. */
    Accumulator service_;
    /** Concurrently-busy lines, sampled at each acquire. */
    Accumulator occupancy_;
};

} // namespace enzian::eci

#endif // ENZIAN_ECI_HOME_AGENT_HH
