/**
 * @file
 * HMAC implementation.
 */

#include "crypto/hmac.hh"

#include <algorithm>

namespace mintcb::crypto
{

Bytes
hmacSha1(const Bytes &key, const Bytes &message)
{
    HmacSha1 ctx(key);
    ctx.update(message);
    return ctx.finish();
}

Bytes
hmacSha256(const Bytes &key, const Bytes &message)
{
    HmacSha256 ctx(key);
    ctx.update(message);
    return ctx.finish();
}

Bytes
hmacSha256Xor(const Bytes &key, const Bytes &prefix, Bytes data)
{
    if (data.empty())
        return data;
    HmacSha256 keyed(key);
    keyed.update(prefix);
    std::uint8_t counter[8] = {};
    std::uint8_t block[Sha256::digestSize] = {};
    for (std::size_t off = 0; off < data.size(); off += sizeof(block)) {
        for (int b = 0; b < 8; ++b)
            counter[b] = static_cast<std::uint8_t>(
                (off / sizeof(block)) >> (56 - 8 * b));
        HmacSha256 ctx = keyed;
        ctx.update(counter, sizeof(counter));
        ctx.finishInto(block);
        const std::size_t end = std::min(data.size(), off + sizeof(block));
        for (std::size_t j = off; j < end; ++j)
            data[j] ^= block[j - off];
    }
    return data;
}

bool
constantTimeEqual(const Bytes &a, const Bytes &b)
{
    if (a.size() != b.size())
        return false;
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

} // namespace mintcb::crypto
