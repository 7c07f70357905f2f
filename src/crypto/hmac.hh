/**
 * @file
 * HMAC (RFC 2104) over any of the mintcb hash contexts.
 *
 * Used by the simulated TPM for sealed-blob integrity and by the SEA
 * attestation path for transport-session binding (paper Section 3.3 notes
 * the TPM's secure transport sessions keep the south bridge out of the TCB).
 * hmacSha256Xor is the one counter-mode stream cipher in the tree.
 */

#ifndef MINTCB_CRYPTO_HMAC_HH
#define MINTCB_CRYPTO_HMAC_HH

#include <cstring>

#include "common/types.hh"
#include "crypto/sha1.hh"
#include "crypto/sha256.hh"

namespace mintcb::crypto
{

/**
 * Incremental HMAC context over either hash. The key schedule (both
 * pads) is absorbed once at construction; update() streams message
 * bytes with no intermediate concatenation buffers, so MACing a
 * multi-part transcript costs exactly one pass over the bytes.
 */
template <typename Hash>
class HmacCtx
{
  public:
    explicit HmacCtx(const Bytes &key)
    {
        std::uint8_t block_key[Hash::blockSize] = {0};
        if (key.size() > Hash::blockSize) {
            const auto digest = Hash::digest(key);
            std::memcpy(block_key, digest.data(), digest.size());
        } else if (!key.empty()) {
            std::memcpy(block_key, key.data(), key.size());
        }
        std::uint8_t pad[Hash::blockSize];
        for (std::size_t i = 0; i < Hash::blockSize; ++i)
            pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
        inner_.update(pad, Hash::blockSize);
        for (std::size_t i = 0; i < Hash::blockSize; ++i)
            pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
        outer_.update(pad, Hash::blockSize);
    }

    void
    update(const std::uint8_t *data, std::size_t len)
    {
        inner_.update(data, len);
    }

    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish into @p out (Hash::digestSize bytes). A context finishes
     *  once; copy a keyed one to MAC several messages under one key. */
    void
    finishInto(std::uint8_t *out)
    {
        const auto inner_digest = inner_.finish();
        outer_.update(inner_digest.data(), inner_digest.size());
        const auto mac = outer_.finish();
        std::memcpy(out, mac.data(), mac.size());
    }

    /** Finish and return the MAC. */
    Bytes
    finish()
    {
        Bytes mac(Hash::digestSize);
        finishInto(mac.data());
        return mac;
    }

  private:
    Hash inner_;
    Hash outer_;
};

using HmacSha1 = HmacCtx<Sha1>;
using HmacSha256 = HmacCtx<Sha256>;

/** HMAC-SHA1 of @p message under @p key. */
Bytes hmacSha1(const Bytes &key, const Bytes &message);

/** HMAC-SHA256 of @p message under @p key. */
Bytes hmacSha256(const Bytes &key, const Bytes &message);

/**
 * @p data XORed with the counter-mode stream whose block i is
 * HMAC-SHA256(key, prefix || be64(i)); encrypts and decrypts. Sealed
 * blobs, MWL1 mutations and transport messages each use it under their
 * own prefix. The keyed context is built once and copied per block,
 * so a 32-byte block costs 2 compressions and no allocation.
 */
Bytes hmacSha256Xor(const Bytes &key, const Bytes &prefix, Bytes data);

/** Constant-time byte comparison (avoids modeling a timing oracle). */
bool constantTimeEqual(const Bytes &a, const Bytes &b);

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_HMAC_HH
