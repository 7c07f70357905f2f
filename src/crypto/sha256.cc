/**
 * @file
 * SHA-256 implementation (FIPS 180-4): the portable kernel, the SHA-NI
 * kernel and the once-per-process choice between them.
 */

#include "crypto/sha256.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mintcb::crypto
{

namespace
{

constexpr std::uint32_t
rotr32(std::uint32_t x, int k)
{
    return (x >> k) | (x << (32 - k));
}

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/** Probed once, before main; a read from an earlier static initialiser
 *  sees the zero-initialised false and takes the portable kernel. */
const bool useShaNi = shaNiAvailable();

} // namespace

bool
shaNiAvailable()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

bool
sha256UsesShaNi()
{
    return useShaNi;
}

void
Sha256::compress(std::uint32_t *state, const std::uint8_t *block)
{
    ++threadHashBlocks.sha256;
#if defined(__x86_64__)
    if (useShaNi)
        return sha256CompressShaNi(state, block);
#endif
    sha256CompressPortable(state, block);
}

void
sha256CompressPortable(std::uint32_t *state, const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
        w[t] = static_cast<std::uint32_t>(block[t * 4]) << 24 |
               static_cast<std::uint32_t>(block[t * 4 + 1]) << 16 |
               static_cast<std::uint32_t>(block[t * 4 + 2]) << 8 |
               static_cast<std::uint32_t>(block[t * 4 + 3]);
    }
    for (int t = 16; t < 64; ++t) {
        const std::uint32_t s0 = rotr32(w[t - 15], 7) ^ rotr32(w[t - 15], 18)
                                 ^ (w[t - 15] >> 3);
        const std::uint32_t s1 = rotr32(w[t - 2], 17) ^ rotr32(w[t - 2], 19)
                                 ^ (w[t - 2] >> 10);
        w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int t = 0; t < 64; ++t) {
        const std::uint32_t s1 =
            rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
        const std::uint32_t ch = (e & f) ^ ((~e) & g);
        const std::uint32_t temp1 = h + s1 + ch + kRound[t] + w[t];
        const std::uint32_t s0 =
            rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#if defined(__x86_64__)
/**
 * The state lives in two registers as ABEF and CDGH (highest lane
 * first), the layout sha256rnds2 works on. Each group of four rounds
 * adds its constants to four schedule words and runs sha256rnds2 twice.
 * Words 16..63 are built four at a time: sha256msg1 adds the sigma0
 * terms, an alignr and add bring in words t-7, and sha256msg2 adds the
 * sigma1 terms one group before the words are used.
 */
__attribute__((target("sha,sse4.1"))) void
sha256CompressShaNi(std::uint32_t *state, const std::uint8_t *block)
{
    const __m128i byteSwap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    const __m128i abefStart = abef;
    const __m128i cdghStart = cdgh;

    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
        msg[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(block + 16 * i)),
            byteSwap);
    }

#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
        const __m128i w = msg[i & 3];
        __m128i wk = _mm_add_epi32(
            w, _mm_loadu_si128(
                   reinterpret_cast<const __m128i *>(kRound + 4 * i)));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        if (i >= 3 && i < 15) {
            __m128i &next = msg[(i + 1) & 3];
            next = _mm_add_epi32(next,
                                 _mm_alignr_epi8(w, msg[(i - 1) & 3], 4));
            next = _mm_sha256msg2_epu32(next, w);
        }
        wk = _mm_shuffle_epi32(wk, 0x0e);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
        if (i >= 1 && i < 13)
            msg[(i - 1) & 3] = _mm_sha256msg1_epu32(msg[(i - 1) & 3], w);
    }

    abef = _mm_add_epi32(abef, abefStart);
    cdgh = _mm_add_epi32(cdgh, cdghStart);

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), hgfe);
}
#endif

} // namespace mintcb::crypto
