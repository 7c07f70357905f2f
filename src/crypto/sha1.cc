/**
 * @file
 * SHA-1 implementation (RFC 3174).
 */

#include "crypto/sha1.hh"

namespace mintcb::crypto
{

namespace
{

constexpr std::uint32_t
rotl32(std::uint32_t x, int k)
{
    return (x << k) | (x >> (32 - k));
}

} // namespace

void
Sha1::compress(std::uint32_t *state, const std::uint8_t *block)
{
    ++threadHashBlocks.sha1;
    std::uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
        w[t] = static_cast<std::uint32_t>(block[t * 4]) << 24 |
               static_cast<std::uint32_t>(block[t * 4 + 1]) << 16 |
               static_cast<std::uint32_t>(block[t * 4 + 2]) << 8 |
               static_cast<std::uint32_t>(block[t * 4 + 3]);
    }
    for (int t = 16; t < 80; ++t)
        w[t] = rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];

    for (int t = 0; t < 80; ++t) {
        std::uint32_t f, k;
        if (t < 20) {
            f = (b & c) | ((~b) & d);
            k = 0x5a827999u;
        } else if (t < 40) {
            f = b ^ c ^ d;
            k = 0x6ed9eba1u;
        } else if (t < 60) {
            f = (b & c) | (b & d) | (c & d);
            k = 0x8f1bbcdcu;
        } else {
            f = b ^ c ^ d;
            k = 0xca62c1d6u;
        }
        const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[t];
        e = d;
        d = c;
        c = rotl32(b, 30);
        b = a;
        a = temp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
}

} // namespace mintcb::crypto
