/**
 * @file
 * Set-associative MOESI cache implementation.
 */

#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/logging.hh"

namespace enzian::cache {

Cache::Cache(std::string name, EventQueue &eq, const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    if (cfg_.ways == 0 || cfg_.size_bytes % (lineSize * cfg_.ways) != 0)
        fatal("cache '%s': size %llu not divisible by ways*lineSize",
              SimObject::name().c_str(),
              static_cast<unsigned long long>(cfg_.size_bytes));
    sets_ = static_cast<std::uint32_t>(cfg_.size_bytes /
                                       (lineSize * cfg_.ways));
    if (!std::has_single_bit(sets_))
        fatal("cache '%s': set count %u not a power of two",
              SimObject::name().c_str(), sets_);
    frames_.resize(sets_);
    if (cfg_.policy != ReplPolicy::Lru) {
        WayAllocator::Config acfg;
        acfg.ways = cfg_.ways;
        acfg.partitions = cfg_.partitions;
        acfg.policy = cfg_.policy;
        acfg.adapt_epoch = cfg_.adapt_epoch;
        alloc_ = std::make_unique<WayAllocator>(acfg);
    }
    stats().addCounter("hits", &hits_);
    stats().addCounter("misses", &misses_);
    stats().addCounter("evictions", &evictions_);
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / lineSize) & (sets_ - 1));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr / lineSize) / sets_;
}

const LineFrame *
Cache::find(Addr addr) const
{
    const LineFrame *set = frames_[setIndex(addr)].get();
    if (!set)
        return nullptr;
    const std::uint64_t tag = tagOf(addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (set[w].valid() && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

LineFrame *
Cache::find(Addr addr)
{
    return const_cast<LineFrame *>(
        static_cast<const Cache *>(this)->find(addr));
}

MoesiState
Cache::probe(Addr addr) const
{
    const LineFrame *f = find(lineAlign(addr));
    return f ? f->state : MoesiState::Invalid;
}

LineFrame *
Cache::access(Addr addr)
{
    LineFrame *f = find(lineAlign(addr));
    if (f) {
        f->lastUse = ++useClock_;
        hits_.inc();
    } else {
        misses_.inc();
    }
    return f;
}

std::optional<Eviction>
Cache::fill(Addr addr, MoesiState state, const std::uint8_t *data,
            std::uint32_t owner)
{
    addr = lineAlign(addr);
    ENZIAN_ASSERT(state != MoesiState::Invalid, "fill with Invalid");

    // Re-fill over an existing copy just updates it.
    if (LineFrame *f = find(addr)) {
        f->state = state;
        if (data)
            std::memcpy(f->data.data(), data, lineSize);
        f->lastUse = ++useClock_;
        return std::nullopt;
    }

    if (alloc_)
        alloc_->recordMiss(owner);

    std::unique_ptr<LineFrame[]> &set = frames_[setIndex(addr)];
    if (!set)
        set = std::make_unique<LineFrame[]>(cfg_.ways);
    LineFrame *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (alloc_ && !alloc_->mayAllocate(owner, w))
            continue;
        LineFrame &f = set[w];
        if (!f.valid()) {
            victim = &f;
            break;
        }
        if (!victim || f.lastUse < victim->lastUse)
            victim = &f;
    }
    ENZIAN_ASSERT(victim, "owner %u owns no way", owner);

    std::optional<Eviction> evicted;
    if (victim->valid()) {
        evictions_.inc();
        const std::uint64_t victim_line =
            victim->tag * sets_ + setIndex(addr);
        evicted = Eviction{victim_line * lineSize, victim->state,
                           victim->data};
    }

    victim->tag = tagOf(addr);
    victim->state = state;
    victim->lastUse = ++useClock_;
    if (data)
        std::memcpy(victim->data.data(), data, lineSize);
    else
        victim->data.fill(0);
    return evicted;
}

bool
Cache::hasFreeFrame(Addr addr, std::uint32_t owner) const
{
    const LineFrame *set = frames_[setIndex(lineAlign(addr))].get();
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (alloc_ && !alloc_->mayAllocate(owner, w))
            continue;
        if (!set || !set[w].valid())
            return true;
    }
    return false;
}

void
Cache::setState(Addr addr, MoesiState state)
{
    LineFrame *f = find(lineAlign(addr));
    ENZIAN_ASSERT(f, "setState on non-resident line %llx",
                  static_cast<unsigned long long>(addr));
    f->state = state;
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    addr = lineAlign(addr);
    LineFrame *f = find(addr);
    if (!f)
        return std::nullopt;
    std::optional<Eviction> out;
    if (isDirty(f->state))
        out = Eviction{addr, f->state, f->data};
    f->state = MoesiState::Invalid;
    return out;
}

void
Cache::readData(Addr addr, void *dst, std::uint32_t len) const
{
    const Addr line = lineAlign(addr);
    const std::uint32_t off = static_cast<std::uint32_t>(addr - line);
    ENZIAN_ASSERT(off + len <= lineSize, "read crosses line boundary");
    const LineFrame *f = find(line);
    ENZIAN_ASSERT(f && f->valid(), "readData on non-resident line");
    std::memcpy(dst, f->data.data() + off, len);
}

void
Cache::writeData(Addr addr, const void *src, std::uint32_t len)
{
    const Addr line = lineAlign(addr);
    const std::uint32_t off = static_cast<std::uint32_t>(addr - line);
    ENZIAN_ASSERT(off + len <= lineSize, "write crosses line boundary");
    LineFrame *f = find(line);
    ENZIAN_ASSERT(f && f->valid(), "writeData on non-resident line");
    std::memcpy(f->data.data() + off, src, len);
}

void
Cache::forEachLine(
    const std::function<void(Addr, const LineFrame &)> &fn) const
{
    for (std::uint32_t s = 0; s < sets_; ++s) {
        const LineFrame *set = frames_[s].get();
        if (!set)
            continue;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (set[w].valid())
                fn((set[w].tag * sets_ + s) * lineSize, set[w]);
        }
    }
}

std::uint32_t
Cache::allocatedSets() const
{
    return static_cast<std::uint32_t>(
        std::count_if(frames_.begin(), frames_.end(),
                      [](const auto &set) { return set != nullptr; }));
}

} // namespace enzian::cache
