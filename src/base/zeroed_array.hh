/**
 * @file
 * Fixed-length array whose pages the operating system zero-fills on
 * first touch.
 *
 * The storage is one private anonymous mapping, so creating and
 * destroying an array costs a system call each whatever its length,
 * and resident memory follows the pages actually touched. A table
 * sized for a modelled capacity (a 16 MiB cache's data array) thus
 * costs what the simulation touches, as a lazily allocated structure
 * would, while an element stays one address computation away.
 */

#ifndef ENZIAN_BASE_ZEROED_ARRAY_HH
#define ENZIAN_BASE_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace enzian {

/** @p T must be valid when all its bytes are zero. */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray holds trivially copyable elements");

  public:
    ZeroedArray() = default;

    explicit ZeroedArray(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        void *p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            fatal("ZeroedArray: cannot map %zu bytes", bytes());
        data_ = static_cast<T *>(p);
    }

    ~ZeroedArray()
    {
        if (data_)
            munmap(data_, bytes());
    }

    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        ZeroedArray tmp(std::move(o));
        std::swap(data_, tmp.data_);
        std::swap(size_, tmp.size_);
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    std::size_t size() const { return size_; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace enzian

#endif // ENZIAN_BASE_ZEROED_ARRAY_HH
