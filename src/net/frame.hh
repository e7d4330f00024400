/**
 * @file
 * A frame on the simulated Ethernet and the typed record it carries.
 *
 * Every service on the FPGA network (TCP, RDMA with the coherence
 * bridge on top of it, the accelerator KV store, disaggregated
 * memory's pushdown) moves its request/response record inside the
 * frame that times it: the link,
 * the switch and the cross-domain channel carry the record with the
 * bytes, so it arrives exactly when (and in whichever domain) the
 * frame does and dies with the frame. Nothing travels on the side.
 */

#ifndef ENZIAN_NET_FRAME_HH
#define ENZIAN_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace enzian::net {

/**
 * Move-only holder of one typed record. Trivially copyable records up
 * to kInlineSize bytes (the TCP segment header) live inline, so they
 * cross link and switch without allocating; other records (anything
 * holding a std::vector) take one heap allocation at emplace(). Either
 * way the stored bytes are an inline record or a pointer, so a move
 * is a plain copy of the buffer.
 */
class Payload
{
  public:
    static constexpr std::size_t kInlineSize = 24;

    /** True when a @p T record is stored without allocating. */
    template <typename T>
    static constexpr bool
    storedInline()
    {
        return sizeof(T) <= kInlineSize &&
               alignof(T) <= alignof(std::uint64_t) &&
               std::is_trivially_copyable_v<T>;
    }

    Payload() noexcept = default;
    Payload(Payload &&other) noexcept { take(other); }
    Payload &
    operator=(Payload &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }
    Payload(const Payload &) = delete;
    Payload &operator=(const Payload &) = delete;
    ~Payload() { reset(); }

    /** Store a @p T built from @p args, replacing any record held. */
    template <typename T, typename... Args>
    T &
    emplace(Args &&...args)
    {
        reset();
        T *rec;
        if constexpr (storedInline<T>()) {
            rec = ::new (static_cast<void *>(buf_))
                T(std::forward<Args>(args)...);
        } else {
            rec = new T(std::forward<Args>(args)...);
            ::new (static_cast<void *>(buf_)) T *(rec);
        }
        ops_ = &Model<T>::ops;
        return *rec;
    }

    /** The stored record; fatal unless it is a @p T. */
    template <typename T>
    T &
    get()
    {
        ENZIAN_ASSERT(ops_ == &Model<T>::ops,
                      "frame body holds another record type");
        if constexpr (storedInline<T>())
            return *std::launder(reinterpret_cast<T *>(buf_));
        else
            return **std::launder(reinterpret_cast<T **>(buf_));
    }

  private:
    struct Ops
    {
        void (*destroy)(void *self) noexcept;
    };

    template <typename T>
    struct Model
    {
        static void
        destroy(void *self) noexcept
        {
            // An inline record is trivially copyable, hence trivially
            // destructible.
            if constexpr (!storedInline<T>())
                delete *static_cast<T **>(self);
        }
        /** Its address doubles as the stored type's identity. */
        static constexpr Ops ops{&destroy};
    };

    /** Destroy the record, leaving the payload empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    take(Payload &other) noexcept
    {
        std::memcpy(buf_, other.buf_, kInlineSize);
        ops_ = other.ops_;
        other.ops_ = nullptr;
    }

    alignas(std::uint64_t) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

/** One message on the wire: its timed size, its switch port, its record. */
struct Frame
{
    /** Payload bytes on the wire (segmented and timed by the link). */
    std::uint64_t bytes = 0;
    /** Destination switch port (ignored on a point-to-point link). */
    std::uint32_t dst = 0;
    Payload body;
};

/** A frame of @p bytes to port @p dst whose body is @p record. */
template <typename T>
Frame
makeFrame(std::uint64_t bytes, std::uint32_t dst, T &&record)
{
    Frame frame{bytes, dst, {}};
    frame.body.emplace<std::decay_t<T>>(std::forward<T>(record));
    return frame;
}

} // namespace enzian::net

#endif // ENZIAN_NET_FRAME_HH
