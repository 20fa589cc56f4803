/**
 * @file
 * Hashing primitives of the checker.
 *
 * hashBytes() is the content hash of an encoded state
 * (SystemState::hash): it orders violation candidates by what the
 * state holds, so a verdict does not depend on the thread count, and
 * it names fuzz cases and seeds.  The state store does not use it:
 * it hashes a state's interned slice ids (hashIds, store_arena.hh)
 * and decides identity by comparing those ids, never by a hash.
 *
 * It walks the input in 8-byte chunks folded through a 64x64->128
 * multiply (the wyhash/mum construction), which hashes the ~240-byte
 * state record roughly an order of magnitude faster than the original
 * byte-at-a-time FNV-1a while mixing well.  FNV-1a is kept for
 * callers that need a seeded streaming hash.
 */

#ifndef CXL_SUPPORT_HASH_HH
#define CXL_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cxl
{

/** FNV-1a 64-bit hash over a byte range. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** splitmix64 finaliser; a strong 64-bit bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Fold a 64x64-bit product into 64 bits (wyhash's mum primitive). */
inline std::uint64_t
mum(std::uint64_t a, std::uint64_t b)
{
#if defined(__SIZEOF_INT128__)
    const unsigned __int128 m =
        static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(m) ^
           static_cast<std::uint64_t>(m >> 64);
#else
    // Portable fallback: two rounds of splitmix-style mixing.
    return mix64(a ^ mix64(b));
#endif
}

namespace detail
{

/** Load the trailing `len` (< 8) bytes into a zero-padded word. */
inline std::uint64_t
loadTail(const unsigned char *p, std::size_t len)
{
    std::uint64_t word = 0;
    std::memcpy(&word, p, len);
    return word;
}

/** Chunked multiply-fold hash parameterised by the two multipliers. */
inline std::uint64_t
chunkHash(const void *data, std::size_t len, std::uint64_t seed,
          std::uint64_t m1, std::uint64_t m2)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed ^ mum(static_cast<std::uint64_t>(len), m1);
    std::size_t n = len;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        h = mum(h ^ word, m1);
        p += 8;
        n -= 8;
    }
    if (n != 0)
        h = mum(h ^ loadTail(p, n), m2);
    return mix64(h);
}

} // namespace detail

/** A well-mixed 64-bit value over a byte range (see the file
 * comment). */
inline std::uint64_t
hashBytes(const void *data, std::size_t len)
{
    return detail::chunkHash(data, len, 0x9e3779b97f4a7c15ull,
                             0xa0761d6478bd642full,
                             0xe7037ed1a0b428dbull);
}

/**
 * Deterministic counter-based RNG (splitmix64 stream).  Used by the
 * obligation-universe sampler; seeding is explicit so every experiment
 * is reproducible.
 */
class SplitMix64
{
  public:
    explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64 random bits. */
    constexpr std::uint64_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, bound); bound must be non-zero. */
    constexpr std::uint32_t
    below(std::uint32_t bound)
    {
        return static_cast<std::uint32_t>(next() % bound);
    }

    /** Bernoulli draw with probability num/den. */
    constexpr bool
    chance(std::uint32_t num, std::uint32_t den)
    {
        return below(den) < num;
    }

  private:
    std::uint64_t state_;
};

} // namespace cxl

#endif // CXL_SUPPORT_HASH_HH
