/**
 * @file
 * Units and literal helpers used throughout the simulator.
 *
 * Simulated time is measured in Ticks; one Tick is one picosecond.
 * Data sizes are bytes; rates are expressed in bytes/second (double) at
 * model boundaries and converted to ticks-per-byte internally.
 */

#ifndef ENZIAN_BASE_UNITS_HH
#define ENZIAN_BASE_UNITS_HH

#include <cstdint>

namespace enzian {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A tick later than any the simulation reaches ("never"). */
constexpr Tick kMaxTick = ~Tick{0};

/** Physical address in the simulated machine. */
using Addr = std::uint64_t;

namespace units {

// --- time ---------------------------------------------------------------
constexpr Tick psPerNs = 1000;
constexpr Tick psPerUs = 1000 * 1000;
constexpr Tick psPerMs = 1000ull * 1000 * 1000;
constexpr Tick psPerSec = 1000ull * 1000 * 1000 * 1000;

/** Nanoseconds to ticks. */
constexpr Tick ns(double v) { return static_cast<Tick>(v * psPerNs); }
/** Microseconds to ticks. */
constexpr Tick us(double v) { return static_cast<Tick>(v * psPerUs); }
/** Milliseconds to ticks. */
constexpr Tick ms(double v) { return static_cast<Tick>(v * psPerMs); }
/** Seconds to ticks. */
constexpr Tick sec(double v) { return static_cast<Tick>(v * psPerSec); }

/** Ticks to seconds (double, for reporting). */
constexpr double toSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(psPerSec);
}
/** Ticks to microseconds (double, for reporting). */
constexpr double toMicros(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(psPerUs);
}
/** Ticks to nanoseconds (double, for reporting). */
constexpr double toNanos(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(psPerNs);
}

// --- sizes ----------------------------------------------------------------
constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;
constexpr std::uint64_t GiB = 1024 * MiB;
constexpr std::uint64_t TiB = 1024 * GiB;

// --- rates ----------------------------------------------------------------
/** Gigabits/second to bytes/second. */
constexpr double gbps(double v) { return v * 1e9 / 8.0; }
/** Gigabytes/second (decimal) to bytes/second. */
constexpr double gBps(double v) { return v * 1e9; }
/** GiB/second (binary) to bytes/second. */
constexpr double giBps(double v) { return v * static_cast<double>(GiB); }

/** Bytes/second to GiB/s for reporting. */
constexpr double toGiBps(double bytes_per_sec)
{
    return bytes_per_sec / static_cast<double>(GiB);
}
/** Bytes/second to Gbit/s for reporting. */
constexpr double toGbps(double bytes_per_sec)
{
    return bytes_per_sec * 8.0 / 1e9;
}

/**
 * Ticks it takes to move @p bytes at @p bytes_per_sec. Rounds up so a
 * nonzero transfer always takes at least one tick.
 */
constexpr Tick
transferTicks(std::uint64_t bytes, double bytes_per_sec)
{
    if (bytes == 0)
        return 0;
    double secs = static_cast<double>(bytes) / bytes_per_sec;
    Tick t = static_cast<Tick>(secs * static_cast<double>(psPerSec));
    return t == 0 ? 1 : t;
}

} // namespace units
} // namespace enzian

#endif // ENZIAN_BASE_UNITS_HH
