/**
 * @file
 * Miller-Rabin and prime generation.
 */

#include "crypto/prime.hh"

#include <array>
#include <atomic>
#include <string>

namespace mintcb::crypto
{

namespace
{

// Small primes for trial division; rejects ~88% of random odd candidates
// before any modexp runs.
constexpr std::array<std::uint64_t, 168> smallPrimes = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463,
    467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569,
    571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647,
    653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743,
    751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839,
    853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941,
    947, 953, 967, 971, 977, 983, 991, 997,
};

} // namespace

BigNum
randomBits(Rng &rng, std::size_t bits)
{
    if (bits == 0)
        return BigNum();
    Bytes raw = rng.bytes((bits + 7) / 8);
    // Clear excess high bits, then force the top bit.
    const std::size_t excess = raw.size() * 8 - bits;
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
    return BigNum::fromBytesBE(raw);
}

BigNum
randomBelow(Rng &rng, const BigNum &bound)
{
    const std::size_t bits = bound.bitLength();
    if (bits == 0)
        return BigNum();
    // Rejection sampling over [0, 2^bits).
    while (true) {
        Bytes raw = rng.bytes((bits + 7) / 8);
        const std::size_t excess = raw.size() * 8 - bits;
        raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
        BigNum candidate = BigNum::fromBytesBE(raw);
        if (candidate < bound)
            return candidate;
    }
}

bool
isProbablePrime(const BigNum &n, Rng &rng, int rounds)
{
    if (n < BigNum(2))
        return false;
    for (std::uint64_t p : smallPrimes) {
        if (n == BigNum(p))
            return true;
        if (n.modU64(p) == 0)
            return false;
    }

    // Write n - 1 = d * 2^r with d odd.
    const BigNum n_minus_1 = n.subU64(1);
    BigNum d = n_minus_1;
    std::size_t r = 0;
    while (!d.isOdd()) {
        d = d.shiftRight(1);
        ++r;
    }

    const BigNum n_minus_3 = n.subU64(3);
    for (int round = 0; round < rounds; ++round) {
        // a uniform in [2, n-2]
        const BigNum a = randomBelow(rng, n_minus_3).addU64(2);
        BigNum x = a.modExp(d, n);
        if (x == BigNum(1) || x == n_minus_1)
            continue;
        bool witness = true;
        for (std::size_t i = 0; i + 1 < r; ++i) {
            x = (x * x) % n;
            if (x == n_minus_1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

namespace
{

std::atomic<std::uint64_t> primeGenerations{0};

} // namespace

std::uint64_t
primeGenerationCount()
{
    return primeGenerations.load(std::memory_order_relaxed);
}

Result<BigNum>
generatePrime(Rng &rng, std::size_t bits)
{
    if (bits < 2) {
        return Error(Errc::invalidArgument,
                     "no odd prime has " + std::to_string(bits) + " bits");
    }
    primeGenerations.fetch_add(1, std::memory_order_relaxed);
    // Candidates are uniform over the odd b-bit integers, at least 1/b
    // of which are prime for every b >= 2 (about 2/(b ln 2) for large
    // b, by the prime number theorem). Miller-Rabin never rejects a
    // prime, so all 128*b candidates miss with probability at most
    // (1 - 1/b)^(128 b) < e^-128, about 2^-184. Exhausting the bound
    // means the RNG or the arithmetic is broken, not bad luck.
    const std::size_t maxCandidates = 128 * bits;
    for (std::size_t i = 0; i < maxCandidates; ++i) {
        BigNum candidate = randomBits(rng, bits);
        if (!candidate.isOdd())
            candidate = candidate.addU64(1);
        if (isProbablePrime(candidate, rng))
            return candidate;
    }
    return Error(Errc::resourceExhausted,
                 "no " + std::to_string(bits) + "-bit prime in " +
                     std::to_string(maxCandidates) + " candidates");
}

} // namespace mintcb::crypto
