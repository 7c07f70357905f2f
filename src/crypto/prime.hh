/**
 * @file
 * Probabilistic prime generation for RSA key material.
 */

#ifndef MINTCB_CRYPTO_PRIME_HH
#define MINTCB_CRYPTO_PRIME_HH

#include "common/result.hh"
#include "common/rng.hh"
#include "crypto/bignum.hh"

namespace mintcb::crypto
{

/** Uniform random BigNum with exactly @p bits bits (top bit set). */
BigNum randomBits(Rng &rng, std::size_t bits);

/** Uniform random BigNum in [0, bound). */
BigNum randomBelow(Rng &rng, const BigNum &bound);

/**
 * Miller-Rabin probable-prime test with @p rounds random bases.
 * Deterministically correct for the small primes it special-cases.
 */
bool isProbablePrime(const BigNum &n, Rng &rng, int rounds = 16);

/**
 * Generate a random probable prime of exactly @p bits bits with both the
 * top bit and the low bit set. Uses trial division by small primes before
 * Miller-Rabin. Refuses bits < 2 (no odd prime has fewer) with
 * invalidArgument, and gives up with resourceExhausted after a bounded
 * number of candidates instead of looping forever.
 */
Result<BigNum> generatePrime(Rng &rng, std::size_t bits);

/**
 * Process-wide count of generatePrime() invocations. Prime search is the
 * expensive step of RSA generation; the key cache's contract is that a
 * cache hit never re-runs it, and the regression test pins that with
 * this counter.
 */
std::uint64_t primeGenerationCount();

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_PRIME_HH
