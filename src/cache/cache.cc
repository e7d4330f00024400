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
    setBits_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
    const std::size_t frames = std::size_t{sets_} * cfg_.ways;
    tags_ = ZeroedArray<std::uint64_t>(frames);
    states_ = ZeroedArray<MoesiState>(frames);
    stamps_ = ZeroedArray<std::uint64_t>(frames);
    data_ = ZeroedArray<std::uint8_t>(frames * lineSize);
    touchedBits_ = ZeroedArray<std::uint64_t>((sets_ + 63) / 64);
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

std::size_t
Cache::findWay(Addr addr) const
{
    const std::uint64_t key = tagKey(addr);
    const std::uint64_t *tags = tags_.data() + slot(setIndex(addr), 0);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == key)
            return w;
    }
    return noWay;
}

MoesiState
Cache::probe(Addr addr) const
{
    addr = lineAlign(addr);
    const std::size_t w = findWay(addr);
    return w == noWay ? MoesiState::Invalid
                      : states_[slot(setIndex(addr),
                                     static_cast<std::uint32_t>(w))];
}

LineHandle
Cache::lookup(Addr addr)
{
    addr = lineAlign(addr);
    const std::size_t w = findWay(addr);
    if (w == noWay)
        return {};
    return {this, setIndex(addr), static_cast<std::uint32_t>(w)};
}

LineHandle
Cache::access(Addr addr)
{
    const LineHandle line = lookup(addr);
    if (line)
        line.touch();
    else
        misses_.inc();
    return line;
}

std::optional<Eviction>
Cache::fill(Addr addr, MoesiState state, const std::uint8_t *data,
            std::uint32_t owner)
{
    addr = lineAlign(addr);
    ENZIAN_ASSERT(state != MoesiState::Invalid, "fill with Invalid");
    const std::uint32_t set = setIndex(addr);

    // Re-fill over an existing copy just updates it.
    if (const std::size_t w = findWay(addr); w != noWay) {
        const auto way = static_cast<std::uint32_t>(w);
        states_[slot(set, way)] = state;
        if (data)
            std::memcpy(lineData(set, way), data, lineSize);
        stamps_[slot(set, way)] = ++useClock_;
        return std::nullopt;
    }

    if (alloc_)
        alloc_->recordMiss(owner);

    std::uint64_t &bits = touchedBits_[set / 64];
    const std::uint64_t bit = std::uint64_t{1} << (set % 64);
    if (!(bits & bit)) {
        bits |= bit;
        if (!touched_.empty() && touched_.back() > set)
            touchedSorted_ = false;
        touched_.push_back(set);
    }

    // First allowed Invalid way, else the allowed way with the
    // smallest stamp (the first such way on a tie).
    const std::size_t base = slot(set, 0);
    std::size_t victim = noWay;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (alloc_ && !alloc_->mayAllocate(owner, w))
            continue;
        if (states_[base + w] == MoesiState::Invalid) {
            victim = w;
            break;
        }
        if (victim == noWay || stamps_[base + w] < stamps_[base + victim])
            victim = w;
    }
    ENZIAN_ASSERT(victim != noWay, "owner %u owns no way", owner);
    const auto way = static_cast<std::uint32_t>(victim);
    const std::size_t s = base + way;

    std::optional<Eviction> evicted;
    if (states_[s] != MoesiState::Invalid) {
        evictions_.inc();
        evicted.emplace();
        evicted->addr = lineAddr(set, way);
        evicted->state = states_[s];
        std::memcpy(evicted->data.data(), lineData(set, way), lineSize);
    }

    tags_[s] = tagKey(addr);
    states_[s] = state;
    stamps_[s] = ++useClock_;
    if (data)
        std::memcpy(lineData(set, way), data, lineSize);
    else
        std::memset(lineData(set, way), 0, lineSize);
    return evicted;
}

bool
Cache::hasFreeFrame(Addr addr, std::uint32_t owner) const
{
    const std::size_t base = slot(setIndex(lineAlign(addr)), 0);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (alloc_ && !alloc_->mayAllocate(owner, w))
            continue;
        if (states_[base + w] == MoesiState::Invalid)
            return true;
    }
    return false;
}

void
Cache::setState(std::uint32_t set, std::uint32_t way, MoesiState state)
{
    states_[slot(set, way)] = state;
    if (state == MoesiState::Invalid)
        tags_[slot(set, way)] = 0;
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    return invalidate(lookup(addr));
}

std::optional<Eviction>
Cache::invalidate(LineHandle line)
{
    if (!line)
        return std::nullopt;
    std::optional<Eviction> out;
    if (isDirty(line.state())) {
        out.emplace();
        out->addr = lineAddr(line.set_, line.way_);
        out->state = line.state();
        std::memcpy(out->data.data(), line.data(), lineSize);
    }
    line.setState(MoesiState::Invalid);
    return out;
}

void
Cache::forEachLine(
    const std::function<void(Addr, MoesiState)> &fn) const
{
    if (!touchedSorted_) {
        std::sort(touched_.begin(), touched_.end());
        touchedSorted_ = true;
    }
    for (const std::uint32_t set : touched_) {
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            const MoesiState st = states_[slot(set, w)];
            if (st != MoesiState::Invalid)
                fn(lineAddr(set, w), st);
        }
    }
}

} // namespace enzian::cache
