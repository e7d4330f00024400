/**
 * @file
 * Growable ring-buffer FIFO.
 *
 * Reuses its storage once warm, so a steady stream of push/pop pairs
 * allocates nothing (std::deque allocates and frees a block every few
 * elements).
 */

#ifndef ENZIAN_BASE_RING_FIFO_HH
#define ENZIAN_BASE_RING_FIFO_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace enzian {

/** FIFO of default-constructible, move-assignable @p T. */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    void
    push(T &&value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(value);
        ++count_;
    }

    /** The oldest element; precondition: !empty(). */
    const T &front() const { return buf_[head_]; }

    /** Remove and return the oldest element; precondition: !empty(). */
    T
    pop()
    {
        T out = std::move(buf_[head_]);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
        return out;
    }

  private:
    void
    grow()
    {
        std::vector<T> next(std::max<std::size_t>(8, buf_.size() * 2));
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_.swap(next);
        head_ = 0;
    }

    /** Capacity is always a power of two. */
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace enzian

#endif // ENZIAN_BASE_RING_FIFO_HH
