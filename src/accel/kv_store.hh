/**
 * @file
 * Hardware-accelerated key-value store (paper section 5.2).
 *
 * "It also shows how Enzian can be used to implement, e.g.,
 * hardware-accelerated key-value stores [KV-Direct]". The store is a
 * KV-Direct-style FPGA-resident open-addressing hash table living in
 * FPGA DRAM: GET/PUT/DELETE requests arrive over 100 GbE, the fabric
 * pipeline hashes and probes DRAM (one 64-byte slot per beat), and
 * responses go straight back out - the host CPU is never on the data
 * path. With up to 1 TiB of DRAM behind the FPGA, the table can be
 * orders of magnitude larger than on PCIe accelerator cards.
 *
 * GET/PUT/DELETE are two-sided RDMA requests: handlers on the store's
 * net::RdmaTarget, issued by KvClient over a net::RdmaInitiator, so
 * they share RDMA's wire format, timeout, retry and fault hooks. A
 * retried request runs again at the store: GET and PUT are
 * idempotent, but a retried DELETE whose first run succeeded reports
 * a miss.
 */

#ifndef ENZIAN_ACCEL_KV_STORE_HH
#define ENZIAN_ACCEL_KV_STORE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/memory_controller.hh"
#include "net/rdma_engine.hh"

namespace enzian::accel {

/** Maximum value size storable inline in one slot. */
constexpr std::uint32_t kvMaxValueBytes = 46;
/** Slot size: one DRAM beat. */
constexpr std::uint32_t kvSlotBytes = 64;

/** The FPGA-resident store engine + network front-end. */
class KvStoreServer : public SimObject
{
  public:
    /** Engine configuration. */
    struct Config
    {
        /** Switch port of the store's RDMA target. */
        std::uint32_t port = 0;
        /**
         * Table placement in FPGA DRAM; the table is reserved there
         * at construction (mem::MemoryController::reserve).
         */
        Addr table_base = 0;
        /** Number of slots (power of two). */
        std::uint64_t slots = 1ull << 20;
        /** Pipeline cost per request (hash + dispatch), fabric ns. */
        double request_proc_ns = 60.0;
        /** Linear-probe limit before PUT fails / GET gives up. */
        std::uint32_t max_probes = 64;
    };

    KvStoreServer(std::string name, EventQueue &eq, net::Switch &sw,
                  mem::MemoryController &fpga_mem, const Config &cfg);

    // --- direct (in-fabric) functional operations -------------------
    /** Insert or update; false if the probe window is full. */
    bool put(std::uint64_t key, const std::uint8_t *value,
             std::uint32_t len);
    /** Look up; nullopt on miss. */
    std::optional<std::vector<std::uint8_t>> get(std::uint64_t key);
    /** Delete; false on miss. */
    bool erase(std::uint64_t key);

    /** Timed DRAM cost of the probes the last operation performed. */
    Tick lastOpDramDone() const { return lastDramDone_; }

    std::uint64_t gets() const { return gets_.value(); }
    std::uint64_t puts() const { return puts_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t probes() const { return probes_.value(); }

    /** Occupied slots (for load-factor checks). */
    std::uint64_t occupied() const { return occupied_; }

    const Config &config() const { return cfg_; }

    /** The RDMA target serving the store's network requests. */
    net::RdmaTarget &rdma() { return rdma_; }

  private:
    enum : std::uint8_t { slotEmpty = 0, slotUsed = 1, slotDead = 2 };

    std::uint64_t hash(std::uint64_t key) const;
    Addr slotAddr(std::uint64_t index) const;

    mem::MemoryController &mem_;
    Config cfg_;
    net::DirectDramPath path_;
    net::RdmaTarget rdma_;
    std::uint64_t occupied_ = 0;
    Tick lastDramDone_ = 0;
    Counter gets_;
    Counter puts_;
    Counter hits_;
    Counter misses_;
    Counter probes_;
};

/** Client-side stub: KV operations as two-sided RDMA requests. */
class KvClient
{
  public:
    /** GET completion: (tick, found, value). */
    using GetDone = net::RdmaInitiator::CallDone;
    /** PUT/DEL completion: (tick, ok). */
    using AckDone = std::function<void(Tick, bool)>;

    KvClient(std::string name, EventQueue &eq, net::Switch &sw,
             std::uint32_t port, std::uint32_t server_port);

    void get(std::uint64_t key, GetDone done);
    void put(std::uint64_t key, const std::uint8_t *value,
             std::uint32_t len, AckDone done);
    void erase(std::uint64_t key, AckDone done);

    /** The RDMA initiator carrying the requests. */
    net::RdmaInitiator &rdma() { return rdma_; }

  private:
    net::RdmaInitiator rdma_;
};

} // namespace enzian::accel

#endif // ENZIAN_ACCEL_KV_STORE_HH
