/**
 * @file
 * Open-addressed hash table keyed by unsigned integers.
 *
 * One power-of-two slot array with linear probing and backward-shift
 * erase: there are no tombstones, so a table that churns keys (line
 * addresses, transaction ids) keeps its probe runs short and
 * allocates only when it grows. Keys are spread by a multiplicative
 * (Fibonacci) hash, which scatters strided keys such as line-aligned
 * addresses. The layout depends only on the sequence of operations,
 * so iteration order is deterministic.
 *
 * Any insert or erase may move entries: do not hold a pointer from
 * find() or insert() across another insert or erase.
 */

#ifndef ENZIAN_BASE_FLAT_MAP_HH
#define ENZIAN_BASE_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace enzian {

/** Map from unsigned @p K to default-constructible, movable @p V. */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned");

  public:
    /** Slots allocated by the first insert. */
    static constexpr std::size_t initialCapacity = 16;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots currently allocated (0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** Slot where the probe for @p key starts. @pre capacity() > 0. */
    std::size_t homeSlot(K key) const { return home(key); }

    /** The value stored under @p key, or nullptr. */
    V *
    find(K key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const V *
    find(K key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(K key) const { return find(key) != nullptr; }

    /**
     * Insert @p key with a value-initialised value unless present.
     * @return the stored value and whether it was inserted
     */
    std::pair<V *, bool>
    insert(K key)
    {
        if (V *v = find(key))
            return {v, false};
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t i = home(key);
        while (slots_[i].used)
            i = next(i);
        slots_[i].key = key;
        slots_[i].used = true;
        ++size_;
        return {&slots_[i].value, true};
    }

    /** Insert @p key with @p value unless present (then unchanged). */
    std::pair<V *, bool>
    insert(K key, V &&value)
    {
        auto res = insert(key);
        if (res.second)
            *res.first = std::move(value);
        return res;
    }

    V &operator[](K key) { return *insert(key).first; }

    /** Remove @p key. @return whether it was present. */
    bool
    erase(K key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = next(hole)) {
            if (!slots_[hole].used)
                return false;
            if (slots_[hole].key == key)
                break;
        }
        // Backward shift: pull each later entry of the run into the
        // hole unless that would move it before its home slot.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        K key{};
        bool used = false;
        V value{};
    };

    std::size_t
    home(K key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? initialCapacity
                                             : slots_.size() * 2);
        old.swap(slots_);
        shift_ = 64;
        for (std::size_t n = slots_.size(); n > 1; n >>= 1)
            --shift_;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].used)
                i = next(i);
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** 64 - log2(capacity): home() keeps the hash's top bits. */
    unsigned shift_ = 64;
};

/** Value of a FlatMap used as a set. */
struct FlatSetMember
{
};

/** Set of unsigned keys on the same open-addressed layout. */
template <typename K>
using FlatSet = FlatMap<K, FlatSetMember>;

} // namespace enzian

#endif // ENZIAN_BASE_FLAT_MAP_HH
