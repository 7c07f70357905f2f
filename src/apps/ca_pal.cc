/**
 * @file
 * CA PAL implementation.
 */

#include "apps/ca_pal.hh"

#include "common/bytebuf.hh"

namespace mintcb::apps
{

namespace
{

/** Modeled latency of in-PAL RSA key generation on 2007 hardware. */
constexpr Duration keygenCost = Duration::millis(180);
/** Modeled latency of one in-PAL RSA signature. */
constexpr Duration signCost = Duration::millis(12);

} // namespace

Bytes
Certificate::tbs() const
{
    ByteWriter w;
    w.str("CERT");
    w.str(subject);
    w.lengthPrefixed(subjectPublicKey);
    return w.take();
}

bool
verifyCertificate(const crypto::RsaPublicKey &ca_key,
                  const Certificate &cert)
{
    return crypto::rsaVerifySha1(ca_key, cert.tbs(), cert.signature);
}

CertificateAuthority::CertificateAuthority(sea::SeaDriver &driver,
                                           std::size_t key_bits)
    : driver_(driver), keyBits_(key_bits)
{
}

sea::Pal
CertificateAuthority::makeCaPal(bool initialize,
                                CertificateRequest request)
{
    // One identity for both flows: the sign flow must unseal what the
    // init flow sealed, so the measured code must be identical.
    const std::size_t key_bits = keyBits_;
    return sea::Pal::fromLogic(
        "certificate-authority-pal", 12 * 1024,
        [initialize, request = std::move(request),
         key_bits](sea::PalContext &ctx) -> Status {
            if (initialize) {
                // Derive key material from TPM randomness; charge the
                // modeled keygen latency.
                auto seed_bytes = ctx.tpm().getRandom(8);
                if (!seed_bytes)
                    return seed_bytes.error();
                std::uint64_t seed = 0;
                for (std::uint8_t b : *seed_bytes)
                    seed = seed << 8 | b;
                Rng rng(seed);
                auto key = crypto::rsaGenerate(rng, key_bits);
                if (!key)
                    return key.error();
                ctx.compute(keygenCost);

                auto blob = ctx.sealState(key->encode());
                if (!blob)
                    return blob.error();
                ByteWriter out;
                out.lengthPrefixed(key->pub.encode());
                out.lengthPrefixed(blob->encode());
                ctx.setOutput(out.take());
                return okStatus();
            }

            // Sign flow: the sealed key travels in via the input.
            auto blob = tpm::SealedBlob::decode(ctx.input());
            if (!blob)
                return blob.error();
            auto key_wire = ctx.unsealState(*blob);
            if (!key_wire)
                return key_wire.error();
            auto key = crypto::RsaPrivateKey::decode(*key_wire);
            if (!key)
                return key.error();

            Certificate cert;
            cert.subject = request.subject;
            cert.subjectPublicKey = request.subjectPublicKey;
            cert.signature = crypto::rsaSignSha1(*key, cert.tbs());
            ctx.compute(signCost);
            // The unsealed key is erased with the PAL's memory; no
            // reseal needed (Section 4.1's CA example).
            ctx.setOutput(cert.signature);
            return okStatus();
        });
}

Status
CertificateAuthority::initialize(CpuId cpu)
{
    auto session =
        driver_.run(sea::PalRequest(makeCaPal(true, {})), cpu);
    if (!session)
        return session.error();
    lastReport_ = session.take();
    if (!lastReport_.status.ok())
        return lastReport_.status.error();

    ByteReader r(lastReport_.output);
    const Bytes pub_wire = r.getLengthPrefixed();
    const Bytes blob_wire = r.getLengthPrefixed();
    if (!r.ok())
        return r.error();
    auto pub = crypto::RsaPublicKey::decode(pub_wire);
    if (!pub)
        return pub.error();
    auto blob = tpm::SealedBlob::decode(blob_wire);
    if (!blob)
        return blob.error();

    publicKey_ = pub.take();
    sealedKey_ = blob.take();
    initialized_ = true;
    return okStatus();
}

Result<Certificate>
CertificateAuthority::sign(const CertificateRequest &request, CpuId cpu)
{
    if (!initialized_) {
        return Error(Errc::failedPrecondition,
                     "CA not initialized: no sealed signing key");
    }
    auto session = driver_.run(
        sea::PalRequest(makeCaPal(false, request), sealedKey_.encode()),
        cpu);
    if (!session)
        return session.error();
    lastReport_ = session.take();
    if (!lastReport_.status.ok())
        return lastReport_.status.error();

    Certificate cert;
    cert.subject = request.subject;
    cert.subjectPublicKey = request.subjectPublicKey;
    cert.signature = lastReport_.output;
    return cert;
}

} // namespace mintcb::apps
