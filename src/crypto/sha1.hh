/**
 * @file
 * SHA-1 (RFC 3174), implemented from scratch.
 *
 * SHA-1 is the measurement hash of the TPM v1.2 era: PCR extends, SKINIT's
 * TPM_HASH_DATA path, the ACMod's CPU-side PAL hash, and quote composites
 * all use it (paper Sections 2.1 and 3.3). It is cryptographically broken
 * today; we implement it because the reproduction targets 2008 semantics.
 */

#ifndef MINTCB_CRYPTO_SHA1_HH
#define MINTCB_CRYPTO_SHA1_HH

#include <array>
#include <cstdint>

#include "crypto/mdhash.hh"

namespace mintcb::crypto
{

/** Size of a SHA-1 digest in bytes. */
inline constexpr std::size_t sha1DigestSize = 20;

/** A SHA-1 digest value. */
using Sha1Digest = std::array<std::uint8_t, sha1DigestSize>;

/** Incremental SHA-1 context. */
class Sha1 : public MdHash<Sha1, 5>
{
  public:
    static constexpr std::uint32_t initialState[5] = {
        0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};

    /** One compression of @p block into @p state. */
    static void compress(std::uint32_t *state, const std::uint8_t *block);
};

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_SHA1_HH
