/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#ifndef CONOPT_UTIL_BITOPS_HH
#define CONOPT_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>

namespace conopt {

/** True if @p v is a (nonzero) power of two. */
constexpr bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two (undefined for non-powers). */
constexpr unsigned
log2Exact(uint64_t v)
{
    return static_cast<unsigned>(std::countr_zero(v));
}

/** Smallest power of two >= v (v must be nonzero). */
constexpr uint64_t
ceilPowerOfTwo(uint64_t v)
{
    return std::bit_ceil(v);
}

/** Sign-extend the low @p bits bits of @p v to 64 bits. */
constexpr int64_t
sext64(uint64_t v, unsigned bits)
{
    const unsigned shift = 64 - bits;
    return static_cast<int64_t>(v << shift) >> shift;
}

// FNV-1a hashing constants and steps, shared by the sweep job seeds
// (src/sim/sweep.cc) and the config fingerprints (src/sim/baseline.cc).
constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnv1aPrime = 0x100000001b3ull;

/** One FNV-1a step: fold @p b into the running hash @p h. */
constexpr uint64_t
fnv1aByte(uint64_t h, uint8_t b)
{
    return (h ^ b) * kFnv1aPrime;
}

/** Murmur3-style 64-bit avalanche finalizer. */
constexpr uint64_t
avalanche64(uint64_t v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdull;
    v ^= v >> 33;
    return v;
}

/** Wrapping add/sub on uint64_t used for well-defined overflow semantics. */
constexpr uint64_t
wrappingAdd(uint64_t a, uint64_t b)
{
    return a + b;
}

constexpr uint64_t
wrappingSub(uint64_t a, uint64_t b)
{
    return a - b;
}

constexpr uint64_t
wrappingMul(uint64_t a, uint64_t b)
{
    return a * b;
}

} // namespace conopt

#endif // CONOPT_UTIL_BITOPS_HH
