/**
 * @file
 * Sparse functional memory.
 *
 * BackingStore holds the actual bytes of the simulated machine's
 * DRAM. It is sparse (4 KiB pages allocated on first touch) so a
 * simulated 512 GiB FPGA-side memory costs only what is touched.
 * Pages hang off a fixed-depth radix table of 4 KiB nodes (512
 * children each), deep enough for the store's size and allocated on
 * first touch, so finding a page is one indexed load per level.
 * Timing is handled separately by DramChannel / MemoryController;
 * this class is purely functional.
 */

#ifndef ENZIAN_MEM_BACKING_STORE_HH
#define ENZIAN_MEM_BACKING_STORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "base/units.hh"

namespace enzian::mem {

/** Sparse byte-addressable memory with on-demand page allocation. */
class BackingStore
{
  public:
    static constexpr std::uint64_t pageSize = 4096;

    /**
     * @param size total addressable bytes (accesses beyond it panic)
     */
    explicit BackingStore(std::uint64_t size);
    ~BackingStore();

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    std::uint64_t size() const { return size_; }

    /** Copy @p len bytes at @p addr into @p dst. Untouched pages read 0. */
    void read(Addr addr, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src into memory at @p addr. */
    void write(Addr addr, const void *src, std::uint64_t len);

    /** Convenience typed load (little-endian host layout). */
    template <typename T>
    T
    load(Addr addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Convenience typed store. */
    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Fill [addr, addr+len) with @p byte. */
    void fill(Addr addr, std::uint8_t byte, std::uint64_t len);

    /** Number of pages actually allocated (for tests / footprint). */
    std::size_t pagesAllocated() const { return pages_; }

    /** Radix nodes allocated, the root included (host footprint). */
    std::size_t nodesAllocated() const { return nodes_; }

  private:
    static constexpr unsigned fanoutBits = 9;
    static constexpr std::size_t fanout = std::size_t{1} << fanoutBits;

    using Page = std::array<std::uint8_t, pageSize>;

    /** A radix node: its children are Pages in the last level above
     *  the pages, Nodes elsewhere (null until first touched). */
    struct Node
    {
        std::array<void *, fanout> child{};
    };
    static_assert(sizeof(Node) == pageSize, "a node is one 4 KiB page");

    /** Page for addr, or nullptr if never written. */
    const Page *findPage(Addr addr) const;
    /** Page for addr, allocating (zeroed) if needed. */
    Page &touchPage(Addr addr);

    void checkRange(Addr addr, std::uint64_t len) const;
    /** Child index of page number @p pn in a node @p level levels
     *  above the pages (level 0 holds pages). */
    static std::size_t
    slotOf(std::uint64_t pn, unsigned level)
    {
        return (pn >> (fanoutBits * level)) & (fanout - 1);
    }
    void freeNode(Node *node, unsigned level);

    std::uint64_t size_;
    /** Node levels between the root and the pages (root included). */
    unsigned levels_ = 1;
    Node *root_;
    std::size_t pages_ = 0;
    std::size_t nodes_ = 1;
};

} // namespace enzian::mem

#endif // ENZIAN_MEM_BACKING_STORE_HH
