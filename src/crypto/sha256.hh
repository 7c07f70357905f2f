/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * The TPM v1.2 interface is SHA-1 based, but the simulated TPM's *internal*
 * sealed-blob integrity check uses HMAC-SHA-256 so that blob tampering in
 * tests is detected by a hash that is not trivially collidable.
 *
 * The compression function has two kernels. The portable one runs
 * everywhere and is the reference; on x86-64 CPUs with the SHA
 * extensions (SHA-NI) a second kernel built on them is picked once per
 * process by a CPUID probe. Both produce the same state for every
 * input.
 */

#ifndef MINTCB_CRYPTO_SHA256_HH
#define MINTCB_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>

#include "crypto/mdhash.hh"

namespace mintcb::crypto
{

/** Size of a SHA-256 digest in bytes. */
inline constexpr std::size_t sha256DigestSize = 32;

/** A SHA-256 digest value. */
using Sha256Digest = std::array<std::uint8_t, sha256DigestSize>;

/** Incremental SHA-256 context. */
class Sha256 : public MdHash<Sha256, 8>
{
  public:
    static constexpr std::uint32_t initialState[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

    /** One compression of @p block into @p state, counted in
     *  threadHashBlocks, on the kernel this process picked. */
    static void compress(std::uint32_t *state, const std::uint8_t *block);
};

/** The portable compression kernel: no counting, any CPU. */
void sha256CompressPortable(std::uint32_t *state, const std::uint8_t *block);

/** Whether this CPU has the SHA extensions (and SSE4.1) the SHA-NI
 *  kernel needs; always false off x86-64. */
bool shaNiAvailable();

/** Whether Sha256::compress runs the SHA-NI kernel in this process. */
bool sha256UsesShaNi();

#if defined(__x86_64__)
/** The SHA-NI compression kernel: no counting; call it only when
 *  shaNiAvailable(). */
void sha256CompressShaNi(std::uint32_t *state, const std::uint8_t *block);
#endif

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_SHA256_HH
