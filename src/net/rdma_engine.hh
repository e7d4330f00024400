/**
 * @file
 * RDMA (StRoM-style) engine.
 *
 * Reproduces the structure of the paper's Figure 8 experiment: a
 * request generator (the Xilinx VCU118 in the paper) issues 1-sided
 * READ/WRITE copy requests over 100 Gb/s Ethernet to a target, which
 * serves them from one of several memory paths:
 *
 *  - DirectDramPath: DDR4 attached to the FPGA/NIC ("DRAM" series);
 *  - EciHostPath: CPU host memory reached over ECI with uncached
 *    coherent line transactions ("Enzian Host" - coherent with L2);
 *  - PcieHostPath: host memory reached with PCIe DMA ("Alveo Host");
 *  - NicDmaPath (rnic_model.hh): an ASIC RNIC's DMA pipeline
 *    ("Mellanox Host").
 *
 * As in StRoM, a target can also run small kernels at the NIC: a
 * two-sided request names a handler registered on the target, which
 * computes a reply (the FPGA KV store's get/put/del, the
 * disaggregated-memory pushdown scan). Both kinds share one wire
 * record, one request table and one timeout-and-retry path. A retry
 * runs the handler again, so two-sided requests are at-least-once, as
 * one-sided writes are.
 */

#ifndef ENZIAN_NET_RDMA_ENGINE_HH
#define ENZIAN_NET_RDMA_ENGINE_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "eci/remote_agent.hh"
#include "net/switch.hh"
#include "pcie/dma_engine.hh"

namespace enzian::net {

/** RDMA request header bytes on the wire (BTH + RETH equivalent). */
constexpr std::uint32_t rdmaHeaderBytes = 64;

/** Abstract timed+functional path to a target's memory region. */
class MemoryPath
{
  public:
    using Done = std::function<void(Tick)>;

    virtual ~MemoryPath() = default;

    /** Read @p len bytes at region offset @p off into @p dst. */
    virtual void read(Addr off, std::uint8_t *dst, std::uint64_t len,
                      Done done) = 0;

    /** Write @p len bytes at region offset @p off from @p src. */
    virtual void write(Addr off, const std::uint8_t *src,
                       std::uint64_t len, Done done) = 0;

    /** Short label for reports ("dram", "eci-host", "pcie-host"). */
    virtual const char *kind() const = 0;
};

/** Memory path straight into device-attached DRAM. */
class DirectDramPath : public MemoryPath
{
  public:
    explicit DirectDramPath(mem::MemoryController &mc) : mc_(mc) {}

    void read(Addr off, std::uint8_t *dst, std::uint64_t len,
              Done done) override;
    void write(Addr off, const std::uint8_t *src, std::uint64_t len,
               Done done) override;
    const char *kind() const override { return "dram"; }

  private:
    mem::MemoryController &mc_;
};

/**
 * Memory path to CPU host memory over ECI: the transfer is split into
 * uncached coherent cache-line transactions, so it is coherent with
 * the CPU's L2 by construction.
 */
class EciHostPath : public MemoryPath
{
  public:
    /**
     * @param agent the FPGA-side remote agent
     * @param base physical base address of the host region
     */
    EciHostPath(eci::RemoteAgent &agent, Addr base)
        : agent_(agent), base_(base)
    {
    }

    void read(Addr off, std::uint8_t *dst, std::uint64_t len,
              Done done) override;
    void write(Addr off, const std::uint8_t *src, std::uint64_t len,
               Done done) override;
    const char *kind() const override { return "eci-host"; }

  private:
    eci::RemoteAgent &agent_;
    Addr base_;
};

/** Memory path to host memory via a PCIe DMA engine (Alveo-style). */
class PcieHostPath : public MemoryPath
{
  public:
    /**
     * @param dma the card's DMA engine
     * @param host_base offset of the region in host memory
     * @param staging_base offset of a staging buffer in device memory
     */
    PcieHostPath(pcie::DmaEngine &dma, Addr host_base, Addr staging_base)
        : dma_(dma), hostBase_(host_base), stagingBase_(staging_base)
    {
    }

    void read(Addr off, std::uint8_t *dst, std::uint64_t len,
              Done done) override;
    void write(Addr off, const std::uint8_t *src, std::uint64_t len,
               Done done) override;
    const char *kind() const override { return "pcie-host"; }

  private:
    pcie::DmaEngine &dma_;
    Addr hostBase_;
    Addr stagingBase_;
};

/**
 * RDMA operation codes. Read and Write are one-sided; every other
 * code names a two-sided request served by the handler registered for
 * it with RdmaTarget::setHandler().
 */
enum class RdmaOp : std::uint8_t { Read = 1, Write = 2 };

/** The target-side RDMA engine attached to a switch port. */
class RdmaTarget : public SimObject
{
  public:
    /** Target processing configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Request parsing/dispatch cost (ns). */
        double request_proc_ns = 300.0;
    };

    RdmaTarget(std::string name, EventQueue &eq, Switch &sw,
               MemoryPath &mem, const Config &cfg);

    std::uint64_t requestsServed() const { return served_.value(); }

    /**
     * Inject response-loss faults drawing from @p rng (nullptr
     * disarms): a served request's completion frame is dropped on the
     * wire with @p response_drop_prob, leaving recovery to the
     * initiator's timeout/retry machinery.
     */
    void setFaults(Rng *rng, double response_drop_prob);

    std::uint64_t staleRequests() const { return staleReqs_.value(); }
    std::uint64_t responsesDropped() const
    {
        return rspsDropped_.value();
    }

    /**
     * The body of an RDMA frame. A request travels to the target in
     * it, and the target sends the same record back as the response,
     * carrying the read data or a handler's reply.
     */
    struct WireRequest
    {
        RdmaOp op = RdmaOp::Read;
        Addr off = 0;
        /** Bytes the request reads, writes or scans. */
        std::uint64_t len = 0;
        std::uint32_t srcPort = 0;
        /** Attempt id, unique per initiator; a retry gets a new one. */
        std::uint64_t id = 0;
        /**
         * Tick at which this attempt's retry timer fires (kMaxTick
         * without recovery). A target that gets to the request at or
         * after it drops it as stale: by then the initiator has
         * abandoned the attempt.
         */
        Tick expires = kMaxTick;
        /** Write or call payload out; read data or reply back. */
        std::vector<std::uint8_t> data;
        /** Causal flow id of the serving request (0 = untraced). */
        std::uint64_t flowId = 0;
        // -- two-sided requests: handler arguments and status ------
        /** Key of a KV request. */
        std::uint64_t key = 0;
        /** Row size of a scan over [off, off + len). */
        std::uint32_t rowBytes = 0;
        /**
         * Scan predicate: the 8-byte column at row offset predColumn
         * compared with predOperand under comparison code predOp.
         */
        std::uint32_t predColumn = 0;
        std::uint8_t predOp = 0;
        std::uint64_t predOperand = 0;
        /** The handler's status, returned with the reply. */
        bool ok = false;
    };

    /**
     * A two-sided request's handler. It runs at the target once the
     * request is parsed (request_proc_ns after arrival), reads its
     * arguments from the header fields and `data`, leaves the reply in
     * `data`, sets `ok`, and returns the tick at which the reply is
     * ready to leave.
     */
    using Handler = std::function<Tick(WireRequest &)>;

    /** Serve requests carrying @p op (neither Read nor Write) with @p h. */
    void setHandler(RdmaOp op, Handler h);

  private:
    void serve(WireRequest &&wr);
    /** Send @p req, holding any read data or reply, back as the response. */
    void respond(WireRequest &&req);

    Switch &sw_;
    MemoryPath &mem_;
    Config cfg_;
    /** Two-sided handlers, indexed by op code. */
    std::vector<Handler> handlers_;
    /** Response-drop fault stream; nullptr = no faults. */
    Rng *faultRng_ = nullptr;
    double rspDropProb_ = 0.0;
    Counter served_;
    Counter bytes_;
    Counter staleReqs_;
    Counter rspsDropped_;
    /** Dispatch-to-memory-completion service time, ns. */
    Accumulator service_;
};

/** The initiator-side request generator (the paper's VCU118). */
class RdmaInitiator : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;
    /** Two-sided completion: (tick, the handler's status, reply). */
    using CallDone =
        std::function<void(Tick, bool, std::vector<std::uint8_t>)>;

    RdmaInitiator(std::string name, EventQueue &eq, Switch &sw,
                  std::uint32_t port, std::uint32_t target_port);

    /** 1-sided read of @p len bytes at target offset @p off. */
    void read(Addr off, std::uint8_t *dst, std::uint64_t len, Done done);

    /** 1-sided write of @p len bytes to target offset @p off. */
    void write(Addr off, const std::uint8_t *src, std::uint64_t len,
               Done done);

    /**
     * As read(), but against the target on @p target_port instead of
     * the constructor default — one initiator can serve several
     * targets (replication fan-out, read-from-nearest placement).
     * Retries re-issue against the same target.
     */
    void readFrom(std::uint32_t target_port, Addr off, std::uint8_t *dst,
                  std::uint64_t len, Done done);

    /** As write(), but against the target on @p target_port. */
    void writeTo(std::uint32_t target_port, Addr off,
                 const std::uint8_t *src, std::uint64_t len, Done done);

    /**
     * Two-sided request to the default target. @p req carries the op
     * code of a handler registered there, the handler's header
     * arguments and any payload in `data`; the initiator fills in the
     * rest. A retry runs the handler again: idempotent handlers are
     * safe, others may see a request twice.
     */
    void call(RdmaTarget::WireRequest req, CallDone done);

    /**
     * Arm timeout-based recovery: an unanswered request is abandoned
     * after @p timeout_us (with exponential backoff per attempt) and
     * re-issued under a FRESH attempt id, so a late completion of the
     * old attempt can never be mistaken for the retry's. Must be enabled
     * before faults are injected anywhere on the RDMA path.
     *
     * Exhausting @p max_retries panics by default (the chaos runs
     * treat it as a livelock). With @p abandon_after_retries the
     * request is dropped and counted instead — what a real client
     * does under saturation, and what an open-loop load harness
     * needs: retry storms into an overloaded wire must not take the
     * process down.
     */
    void enableRecovery(double timeout_us, std::uint32_t max_retries = 12,
                        bool abandon_after_retries = false);

    /**
     * Inject request-loss faults on this initiator drawing from
     * @p rng (nullptr disarms). Requires enableRecovery() when
     * @p request_drop_prob > 0 — there is no other loss recovery.
     */
    void setFaults(Rng *rng, double request_drop_prob);

    std::uint64_t retriesSent() const { return retries_.value(); }
    std::uint64_t requestsDropped() const
    {
        return reqsDropped_.value();
    }
    std::uint64_t staleCompletions() const
    {
        return staleCompletions_.value();
    }

  private:
    struct Pending
    {
        /**
         * The request each attempt sends under a fresh id; its payload
         * is kept for retries only when recovery is on.
         */
        RdmaTarget::WireRequest req;
        /** Read destination. */
        std::uint8_t *dst = nullptr;
        /** One-sided completion. */
        Done done;
        /** Two-sided completion. */
        CallDone callDone;
        /** Destination switch port of this op's target. */
        std::uint32_t target = 0;
        EventId retryEv = 0;
        std::uint32_t attempts = 0;
        /** When the current attempt went on the wire. */
        Tick issued = 0;
    };

    void onFrame(Tick when, Frame &&frame);
    /** Put @p p on the wire as a new attempt. */
    void issue(Pending p);
    void onTimeout(std::uint64_t id);

    Switch &sw_;
    std::uint32_t port_;
    std::uint32_t targetPort_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    /** Next attempt id. */
    std::uint64_t nextId_ = 1;
    /** Retry timeout (0 = recovery off, the default). */
    Tick recoveryTimeout_ = 0;
    std::uint32_t maxRetries_ = 12;
    /** Give up (and count) instead of panicking at max retries. */
    bool abandonAfterRetries_ = false;
    /** Request-drop fault stream; nullptr = no faults. */
    Rng *faultRng_ = nullptr;
    double reqDropProb_ = 0.0;
    Counter retries_;
    Counter reqsDropped_;
    Counter staleCompletions_;
    Counter abandoned_;
};

} // namespace enzian::net

#endif // ENZIAN_NET_RDMA_ENGINE_HH
