/**
 * @file
 * KV store implementation.
 *
 * Slot layout (64 bytes, one DRAM beat):
 *   0   u64  key
 *   8   u8   state (0 empty, 1 used, 2 tombstone)
 *   9   u8   value length
 *   10  u8[46] value
 *   56  u64  (reserved)
 */

#include "accel/kv_store.hh"

#include <bit>
#include <cstring>

#include "base/logging.hh"

namespace enzian::accel {

namespace {

/** Two-sided RDMA op codes of the store's handlers. */
constexpr net::RdmaOp opGet{16};
constexpr net::RdmaOp opPut{17};
constexpr net::RdmaOp opDel{18};

net::RdmaTarget::WireRequest
request(net::RdmaOp op, std::uint64_t key)
{
    net::RdmaTarget::WireRequest req;
    req.op = op;
    req.key = key;
    return req;
}

/** A call completion that reports only the status to @p done. */
net::RdmaInitiator::CallDone
ack(KvClient::AckDone done)
{
    return [done = std::move(done)](Tick t, bool ok,
                                    std::vector<std::uint8_t>) {
        done(t, ok);
    };
}

} // namespace

KvStoreServer::KvStoreServer(std::string name, EventQueue &eq,
                             net::Switch &sw,
                             mem::MemoryController &fpga_mem,
                             const Config &cfg)
    : SimObject(name, eq), mem_(fpga_mem), cfg_(cfg), path_(fpga_mem),
      rdma_(name + ".rdma", eq, sw, path_,
            net::RdmaTarget::Config{cfg.port, cfg.request_proc_ns})
{
    if (!std::has_single_bit(cfg_.slots))
        fatal("KV store '%s': slot count must be a power of two",
              SimObject::name().c_str());
    if (cfg_.table_base + cfg_.slots * kvSlotBytes >
        mem_.store().size())
        fatal("KV store '%s': table does not fit in FPGA DRAM",
              SimObject::name().c_str());
    mem_.reserve(cfg_.table_base, cfg_.slots * kvSlotBytes,
                 SimObject::name());
    // Each handler replies once the DRAM probes of its operation
    // complete.
    using Req = net::RdmaTarget::WireRequest;
    rdma_.setHandler(opGet, [this](Req &req) {
        auto v = get(req.key);
        req.ok = v.has_value();
        req.data = v ? std::move(*v) : std::vector<std::uint8_t>();
        return lastDramDone_;
    });
    rdma_.setHandler(opPut, [this](Req &req) {
        req.ok = put(req.key, req.data.data(),
                     static_cast<std::uint32_t>(req.data.size()));
        req.data.clear();
        return lastDramDone_;
    });
    rdma_.setHandler(opDel, [this](Req &req) {
        req.ok = erase(req.key);
        return lastDramDone_;
    });
    stats().addCounter("gets", &gets_);
    stats().addCounter("puts", &puts_);
    stats().addCounter("hits", &hits_);
    stats().addCounter("misses", &misses_);
    stats().addCounter("probes", &probes_);
}

std::uint64_t
KvStoreServer::hash(std::uint64_t key) const
{
    // splitmix64 finalizer: good avalanche for sequential keys.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) & (cfg_.slots - 1);
}

Addr
KvStoreServer::slotAddr(std::uint64_t index) const
{
    return cfg_.table_base + index * kvSlotBytes;
}

bool
KvStoreServer::put(std::uint64_t key, const std::uint8_t *value,
                   std::uint32_t len)
{
    ENZIAN_ASSERT(len <= kvMaxValueBytes, "value of %u bytes", len);
    puts_.inc();
    lastDramDone_ = now();
    std::uint64_t idx = hash(key);
    std::int64_t first_dead = -1;
    for (std::uint32_t p = 0; p < cfg_.max_probes; ++p) {
        probes_.inc();
        std::uint8_t slot[kvSlotBytes];
        lastDramDone_ =
            mem_.read(lastDramDone_, slotAddr(idx), slot, kvSlotBytes)
                .done;
        std::uint64_t k = 0;
        std::memcpy(&k, slot, 8);
        const std::uint8_t state = slot[8];
        if (state == slotUsed && k == key) {
            // Update in place.
            slot[9] = static_cast<std::uint8_t>(len);
            std::memset(slot + 10, 0, kvMaxValueBytes);
            std::memcpy(slot + 10, value, len);
            lastDramDone_ = mem_.write(lastDramDone_, slotAddr(idx),
                                       slot, kvSlotBytes)
                                .done;
            return true;
        }
        if (state == slotDead && first_dead < 0)
            first_dead = static_cast<std::int64_t>(idx);
        if (state == slotEmpty) {
            const std::uint64_t target =
                first_dead >= 0 ? static_cast<std::uint64_t>(first_dead)
                                : idx;
            std::uint8_t fresh[kvSlotBytes] = {};
            std::memcpy(fresh, &key, 8);
            fresh[8] = slotUsed;
            fresh[9] = static_cast<std::uint8_t>(len);
            std::memcpy(fresh + 10, value, len);
            lastDramDone_ = mem_.write(lastDramDone_,
                                       slotAddr(target), fresh,
                                       kvSlotBytes)
                                .done;
            ++occupied_;
            return true;
        }
        idx = (idx + 1) & (cfg_.slots - 1);
    }
    if (first_dead >= 0) {
        std::uint8_t fresh[kvSlotBytes] = {};
        std::memcpy(fresh, &key, 8);
        fresh[8] = slotUsed;
        fresh[9] = static_cast<std::uint8_t>(len);
        std::memcpy(fresh + 10, value, len);
        lastDramDone_ =
            mem_.write(lastDramDone_,
                       slotAddr(static_cast<std::uint64_t>(first_dead)),
                       fresh, kvSlotBytes)
                .done;
        ++occupied_;
        return true;
    }
    return false; // probe window exhausted
}

std::optional<std::vector<std::uint8_t>>
KvStoreServer::get(std::uint64_t key)
{
    gets_.inc();
    lastDramDone_ = now();
    std::uint64_t idx = hash(key);
    for (std::uint32_t p = 0; p < cfg_.max_probes; ++p) {
        probes_.inc();
        std::uint8_t slot[kvSlotBytes];
        lastDramDone_ =
            mem_.read(lastDramDone_, slotAddr(idx), slot, kvSlotBytes)
                .done;
        std::uint64_t k = 0;
        std::memcpy(&k, slot, 8);
        const std::uint8_t state = slot[8];
        if (state == slotEmpty)
            break;
        if (state == slotUsed && k == key) {
            hits_.inc();
            return std::vector<std::uint8_t>(slot + 10,
                                             slot + 10 + slot[9]);
        }
        idx = (idx + 1) & (cfg_.slots - 1);
    }
    misses_.inc();
    return std::nullopt;
}

bool
KvStoreServer::erase(std::uint64_t key)
{
    lastDramDone_ = now();
    std::uint64_t idx = hash(key);
    for (std::uint32_t p = 0; p < cfg_.max_probes; ++p) {
        probes_.inc();
        std::uint8_t slot[kvSlotBytes];
        lastDramDone_ =
            mem_.read(lastDramDone_, slotAddr(idx), slot, kvSlotBytes)
                .done;
        std::uint64_t k = 0;
        std::memcpy(&k, slot, 8);
        const std::uint8_t state = slot[8];
        if (state == slotEmpty)
            return false;
        if (state == slotUsed && k == key) {
            slot[8] = slotDead;
            lastDramDone_ = mem_.write(lastDramDone_, slotAddr(idx),
                                       slot, kvSlotBytes)
                                .done;
            --occupied_;
            return true;
        }
        idx = (idx + 1) & (cfg_.slots - 1);
    }
    return false;
}

KvClient::KvClient(std::string name, EventQueue &eq, net::Switch &sw,
                   std::uint32_t port, std::uint32_t server_port)
    : rdma_(std::move(name), eq, sw, port, server_port)
{
}

void
KvClient::get(std::uint64_t key, GetDone done)
{
    rdma_.call(request(opGet, key), std::move(done));
}

void
KvClient::put(std::uint64_t key, const std::uint8_t *value,
              std::uint32_t len, AckDone done)
{
    auto req = request(opPut, key);
    req.data.assign(value, value + len);
    rdma_.call(std::move(req), ack(std::move(done)));
}

void
KvClient::erase(std::uint64_t key, AckDone done)
{
    rdma_.call(request(opDel, key), ack(std::move(done)));
}

} // namespace enzian::accel
