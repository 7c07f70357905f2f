/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in mintcb -- TPM GetRandom output, RSA key generation,
 * nonce creation, timing jitter for the Figure 3 error bars -- flows from
 * seeded Rng instances so that every experiment is bit-for-bit repeatable.
 * The one exception, osRandomBytes, serves secrets that no experiment
 * output depends on.
 */

#ifndef MINTCB_COMMON_RNG_HH
#define MINTCB_COMMON_RNG_HH

#include <cstdint>

#include "common/types.hh"

namespace mintcb
{

/**
 * xoshiro256** 1.0 (Blackman & Vigna), seeded through splitmix64.
 * Not cryptographically secure -- the simulated TPM's RNG quality is not
 * under test here, determinism is.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x6d696e746362ull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void reseed(std::uint64_t seed);

    /** Next 64 uniformly random bits. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal variate (Box-Muller; consumes two draws). */
    double nextGaussian();

    /** Fill and return @p n random bytes. */
    Bytes bytes(std::size_t n);

    /** Split off an independently seeded child generator. */
    Rng
    fork()
    {
        return Rng(next() ^ 0x9e3779b97f4a7c15ull);
    }

  private:
    std::uint64_t s_[4];
};

/**
 * @p n bytes from the operating system's entropy pool (getrandom(2)).
 * The one deliberate exception to seeded randomness: for secrets that
 * must not be predictable from a seed, such as gateway session
 * tickets. Drawing them never advances any seeded Rng.
 */
Bytes osRandomBytes(std::size_t n);

} // namespace mintcb

#endif // MINTCB_COMMON_RNG_HH
