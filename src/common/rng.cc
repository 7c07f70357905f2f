/**
 * @file
 * xoshiro256** implementation.
 */

#include "common/rng.hh"

#include <sys/random.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace mintcb
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = bound * (UINT64_MAX / bound);
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return draw % bound;
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    double u1 = nextDouble();
    while (u1 <= 1e-300)
        u1 = nextDouble();
    const double u2 = nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

Bytes
Rng::bytes(std::size_t n)
{
    Bytes out(n);
    std::size_t i = 0;
    while (i < n) {
        std::uint64_t word = next();
        for (int b = 0; b < 8 && i < n; ++b, ++i) {
            out[i] = static_cast<std::uint8_t>(word & 0xff);
            word >>= 8;
        }
    }
    return out;
}

Bytes
osRandomBytes(std::size_t n)
{
    Bytes out(n);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::getrandom(out.data() + got, n - got, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            // No entropy source: a predictable secret would be worse
            // than no process.
            std::abort();
        }
        got += static_cast<std::size_t>(r);
    }
    return out;
}

} // namespace mintcb
