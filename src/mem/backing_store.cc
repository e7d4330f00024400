/**
 * @file
 * BackingStore implementation.
 */

#include "mem/backing_store.hh"

#include <algorithm>

#include "base/logging.hh"

namespace enzian::mem {

BackingStore::BackingStore(std::uint64_t size) : size_(size)
{
    if (size_ == 0)
        fatal("BackingStore of size 0");
    const std::uint64_t last_page = (size_ - 1) / pageSize;
    while (levels_ * fanoutBits < 64 &&
           (last_page >> (levels_ * fanoutBits)) != 0)
        ++levels_;
    root_ = new Node();
}

BackingStore::~BackingStore()
{
    freeNode(root_, levels_ - 1);
}

void
BackingStore::freeNode(Node *node, unsigned level)
{
    for (void *c : node->child) {
        if (level == 0)
            delete static_cast<Page *>(c);
        else if (c)
            freeNode(static_cast<Node *>(c), level - 1);
    }
    delete node;
}

void
BackingStore::checkRange(Addr addr, std::uint64_t len) const
{
    ENZIAN_ASSERT(addr + len <= size_ && addr + len >= addr,
                  "access [%llx, +%llu) beyond store size %llx",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(len),
                  static_cast<unsigned long long>(size_));
}

const BackingStore::Page *
BackingStore::findPage(Addr addr) const
{
    const std::uint64_t pn = addr / pageSize;
    const Node *node = root_;
    for (unsigned level = levels_ - 1; level > 0; --level) {
        node = static_cast<const Node *>(node->child[slotOf(pn, level)]);
        if (!node)
            return nullptr;
    }
    return static_cast<const Page *>(node->child[slotOf(pn, 0)]);
}

BackingStore::Page &
BackingStore::touchPage(Addr addr)
{
    const std::uint64_t pn = addr / pageSize;
    Node *node = root_;
    for (unsigned level = levels_ - 1; level > 0; --level) {
        void *&next = node->child[slotOf(pn, level)];
        if (!next) {
            next = new Node();
            ++nodes_;
        }
        node = static_cast<Node *>(next);
    }
    void *&page = node->child[slotOf(pn, 0)];
    if (!page) {
        page = new Page(); // value-initialised: zeroed
        ++pages_;
    }
    return *static_cast<Page *>(page);
}

void
BackingStore::read(Addr addr, void *dst, std::uint64_t len) const
{
    checkRange(addr, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::uint64_t off = addr % pageSize;
        const std::uint64_t chunk = std::min(len, pageSize - off);
        if (const Page *p = findPage(addr))
            std::memcpy(out, p->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *src, std::uint64_t len)
{
    checkRange(addr, len);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::uint64_t off = addr % pageSize;
        const std::uint64_t chunk = std::min(len, pageSize - off);
        std::memcpy(touchPage(addr).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
BackingStore::fill(Addr addr, std::uint8_t byte, std::uint64_t len)
{
    checkRange(addr, len);
    while (len > 0) {
        const std::uint64_t off = addr % pageSize;
        const std::uint64_t chunk = std::min(len, pageSize - off);
        std::memset(touchPage(addr).data() + off, byte, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace enzian::mem
