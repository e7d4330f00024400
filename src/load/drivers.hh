/**
 * @file
 * ServiceDriver implementations for the platform's three services.
 *
 * Each driver adapts one existing subsystem to the open-loop
 * generator without changing the subsystem's API: GBDT inference
 * batches queue FIFO on the engine, RDMA reads cycle line-aligned
 * offsets through a target memory region, and TCP echo round-trips
 * fan out over a small set of persistent flows. Traced requests get a
 * per-request "req/<id>" Perfetto track with their queue/service
 * breakdown; the flow id the generator publishes stitches those spans
 * to the component-level spans the subsystems emit.
 */

#ifndef ENZIAN_LOAD_DRIVERS_HH
#define ENZIAN_LOAD_DRIVERS_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/gbdt_engine.hh"
#include "load/service_driver.hh"
#include "net/rdma_engine.hh"
#include "net/tcp_stack.hh"

namespace enzian::load {

/** One request = one @p batch-tuple inference on a GbdtEngine. */
class GbdtServiceDriver final : public ServiceDriver
{
  public:
    /**
     * @param batch tuples per request
     * @param tuple_seed seed for the deterministic tuple pool
     */
    GbdtServiceDriver(accel::GbdtEngine &engine, std::uint64_t batch,
                      std::uint64_t tuple_seed);

    void issue(const Request &req, Done done) override;
    const char *kind() const override { return "gbdt"; }

    std::uint64_t batch() const { return batch_; }

  private:
    accel::GbdtEngine &engine_;
    std::uint64_t batch_;
    /** Requests cycle through a small pool of pre-made batches. */
    static constexpr std::uint64_t kPoolBatches = 8;
    std::vector<float> tuples_;
};

/** One request = one RDMA read of @p bytes from the target region. */
class RdmaServiceDriver final : public ServiceDriver
{
  public:
    /**
     * @param bytes read size (rounded handling is the caller's job:
     *        must be line-aligned for the eci-host path)
     * @param region_bytes target region the offsets cycle through
     */
    RdmaServiceDriver(net::RdmaInitiator &initiator,
                      std::uint64_t bytes, std::uint64_t region_bytes);

    void issue(const Request &req, Done done) override;
    const char *kind() const override { return "rdma"; }

  private:
    net::RdmaInitiator &initiator_;
    std::uint64_t bytes_;
    std::uint64_t regionBytes_;
    Addr nextOff_ = 0;
    /** Shared landing buffer; payloads are not inspected. */
    std::vector<std::uint8_t> buf_;
};

/**
 * One request = @p bytes to the echo server and @p bytes back,
 * measured to the last echoed byte. Requests hash over a fixed set of
 * persistent flows; each flow's round trips complete in FIFO order
 * (TCP ordering guarantees this), so completions match requests by
 * position.
 */
class TcpEchoServiceDriver final : public ServiceDriver
{
  public:
    /**
     * Connects @p flows flows from @p client to @p server and
     * installs both receive callbacks — so neither stack may have its
     * receive callback in use elsewhere, and fault plans must attach
     * (turning on recovery) before construction.
     */
    TcpEchoServiceDriver(net::TcpStack &client, net::TcpStack &server,
                         std::uint32_t flows, std::uint64_t bytes);

    void issue(const Request &req, Done done) override;
    const char *kind() const override { return "tcp"; }

  private:
    struct Waiter
    {
        std::uint64_t id;
        Tick submit;
        bool traced;
        Done done;
    };

    struct FlowState
    {
        std::uint32_t flowId = 0;
        std::uint64_t serverRx = 0; // bytes toward the next echo
        std::uint64_t clientRx = 0; // bytes toward the next completion
        std::deque<Waiter> waiting;
    };

    void onServerRx(std::uint32_t flow, std::uint64_t n);
    void onClientRx(std::uint32_t flow, std::uint64_t n);

    net::TcpStack &client_;
    net::TcpStack &server_;
    std::uint64_t bytes_;
    std::vector<FlowState> flows_;
    std::unordered_map<std::uint32_t, std::size_t> byFlowId_;
};

} // namespace enzian::load

#endif // ENZIAN_LOAD_DRIVERS_HH
