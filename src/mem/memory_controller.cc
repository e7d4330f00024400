/**
 * @file
 * MemoryController implementation.
 */

#include "mem/memory_controller.hh"

#include <algorithm>

#include "base/logging.hh"

namespace enzian::mem {

MemoryController::MemoryController(std::string name, EventQueue &eq,
                                   std::uint64_t size,
                                   std::uint32_t channels,
                                   const DramChannel::Config &cfg)
    : SimObject(std::move(name), eq), store_(size),
      dram_(SimObject::name() + ".dram", eq, channels, cfg)
{
    stats().addCounter("strided_ops", &stridedOps_);
    stats().addCounter("strided_rows", &stridedRows_);
}

void
MemoryController::reserve(Addr base, std::uint64_t bytes,
                          std::string owner)
{
    for (const Reservation &r : reserved_) {
        if (base < r.base + r.bytes && r.base < base + bytes)
            fatal("memory '%s': '%s' [%#llx, %#llx) overlaps '%s' "
                  "[%#llx, %#llx)",
                  name().c_str(), owner.c_str(),
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(base + bytes),
                  r.owner.c_str(),
                  static_cast<unsigned long long>(r.base),
                  static_cast<unsigned long long>(r.base + r.bytes));
    }
    reserved_.push_back({base, bytes, std::move(owner)});
}

AccessResult
MemoryController::read(Tick when, Addr offset, void *dst,
                       std::uint64_t len)
{
    store_.read(offset, dst, len);
    return AccessResult{dram_.access(when, len)};
}

AccessResult
MemoryController::write(Tick when, Addr offset, const void *src,
                        std::uint64_t len)
{
    store_.write(offset, src, len);
    return AccessResult{dram_.access(when, len)};
}

AccessResult
MemoryController::readStrided(Tick when, Addr offset,
                              std::uint64_t row_bytes,
                              std::uint32_t rows, std::uint64_t pitch,
                              void *dst)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    Tick done = when;
    for (std::uint32_t r = 0; r < rows; ++r) {
        store_.read(offset + r * pitch, out + r * row_bytes,
                    row_bytes);
        done = std::max(done, dram_.access(when, row_bytes));
    }
    stridedOps_.inc();
    stridedRows_.inc(rows);
    return AccessResult{done};
}

AccessResult
MemoryController::writeStrided(Tick when, Addr offset,
                               std::uint64_t row_bytes,
                               std::uint32_t rows,
                               std::uint64_t pitch, const void *src)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    Tick done = when;
    for (std::uint32_t r = 0; r < rows; ++r) {
        store_.write(offset + r * pitch, in + r * row_bytes,
                     row_bytes);
        done = std::max(done, dram_.access(when, row_bytes));
    }
    stridedOps_.inc();
    stridedRows_.inc(rows);
    return AccessResult{done};
}

} // namespace enzian::mem
