/**
 * @file
 * Sealed-blob crypto implementation.
 */

#include "tpm/blob.hh"

#include "common/bytebuf.hh"
#include "crypto/hmac.hh"

namespace mintcb::tpm
{

namespace
{

constexpr std::uint32_t blobMagic = 0x5345414c; // "SEAL"

/** The payload stream's prefix (crypto::hmacSha256Xor). */
Bytes
streamPrefix()
{
    ByteWriter w;
    w.str("stream");
    return w.take();
}

/** Every field before the ciphertext's bytes, up to and including its
 *  length prefix. Those fields and the ciphertext are what the MAC
 *  covers: everything except the MAC itself. */
void
writeHeader(ByteWriter &w, const SealedBlob &blob)
{
    w.u8(blob.sePcrBound ? 1 : 0);
    w.lengthPrefixed(blob.encryptedInnerKey);
    w.u32(static_cast<std::uint32_t>(blob.policy.size()));
    for (const PcrBinding &b : blob.policy) {
        w.u32(b.index);
        w.lengthPrefixed(b.digestAtRelease);
    }
    w.u32(static_cast<std::uint32_t>(blob.ciphertext.size()));
}

/** HMAC-SHA256 of the header and the ciphertext, streamed in place. */
Bytes
blobMac(const Bytes &inner_key, const SealedBlob &blob)
{
    ByteWriter header;
    writeHeader(header, blob);
    crypto::HmacSha256 mac(inner_key);
    mac.update(header.bytes());
    mac.update(blob.ciphertext);
    return mac.finish();
}

} // namespace

Bytes
SealedBlob::encode() const
{
    ByteWriter w;
    w.u32(blobMagic);
    writeHeader(w, *this);
    w.raw(ciphertext);
    w.lengthPrefixed(mac);
    return w.take();
}

Result<SealedBlob>
SealedBlob::decode(const Bytes &wire)
{
    ByteReader r(wire);
    const std::uint32_t magic = r.getU32();
    if (r.ok() && magic != blobMagic)
        return Error(Errc::integrityFailure, "corrupt blob: not a sealed blob");
    SealedBlob blob;
    blob.sePcrBound = r.getU8() != 0;
    blob.encryptedInnerKey = r.getLengthPrefixed();
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        PcrBinding b;
        b.index = r.getU32();
        b.digestAtRelease = r.getLengthPrefixed();
        if (!r.ok())
            break;
        blob.policy.push_back(std::move(b));
    }
    blob.ciphertext = r.getLengthPrefixed();
    blob.mac = r.getLengthPrefixed();
    return r.finish(std::move(blob), Errc::integrityFailure,
                    "corrupt blob: trailing bytes in blob");
}

SealedBlob
sealBlob(const crypto::RsaPublicKey &srk, Rng &rng, const Bytes &payload,
         const SealPolicy &policy, bool se_pcr_bound)
{
    SealedBlob blob;
    blob.sePcrBound = se_pcr_bound;
    blob.policy = policy;

    const Bytes inner_key = rng.bytes(32);
    auto encrypted = crypto::rsaEncrypt(srk, rng, inner_key);
    // The inner key always fits a >= 512-bit SRK modulus.
    blob.encryptedInnerKey = encrypted.take();
    blob.ciphertext = crypto::hmacSha256Xor(inner_key, streamPrefix(),
                                            payload);
    blob.mac = blobMac(inner_key, blob);
    return blob;
}

Result<Bytes>
unsealBlob(const crypto::RsaPrivateKey &srk, const SealedBlob &blob)
{
    auto inner_key = crypto::rsaDecrypt(srk, blob.encryptedInnerKey);
    if (!inner_key) {
        return Error(Errc::integrityFailure,
                     "corrupt blob: sealed inner key does not decrypt");
    }
    if (!crypto::constantTimeEqual(blobMac(*inner_key, blob), blob.mac)) {
        return Error(Errc::integrityFailure,
                     "bad MAC: sealed blob MAC mismatch");
    }
    return crypto::hmacSha256Xor(*inner_key, streamPrefix(),
                                 blob.ciphertext);
}

const char *
unsealFaultName(UnsealFault fault)
{
    switch (fault) {
      case UnsealFault::none:
        return "none";
      case UnsealFault::wrongPcr:
        return "wrongPcr";
      case UnsealFault::corruptBlob:
        return "corruptBlob";
      case UnsealFault::badMac:
        return "badMac";
      case UnsealFault::sePcrBound:
        return "sePcrBound";
    }
    return "none";
}

UnsealFault
classifyUnsealError(const Error &error)
{
    auto startsWith = [&](const char *prefix) {
        return error.message.rfind(prefix, 0) == 0;
    };
    switch (error.code) {
      case Errc::permissionDenied:
        return startsWith("wrong PCR") ? UnsealFault::wrongPcr
                                       : UnsealFault::none;
      case Errc::failedPrecondition:
        return startsWith("blob is sePCR-bound")
                   ? UnsealFault::sePcrBound
                   : UnsealFault::none;
      case Errc::integrityFailure:
        if (startsWith("bad MAC"))
            return UnsealFault::badMac;
        // Structural damage: our own "corrupt blob:" diagnoses plus
        // the ByteReader truncation errors decode() propagates.
        if (startsWith("corrupt blob") || startsWith("truncated blob"))
            return UnsealFault::corruptBlob;
        return UnsealFault::none;
      default:
        return UnsealFault::none;
    }
}

} // namespace mintcb::tpm
