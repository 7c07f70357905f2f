/**
 * @file
 * Attestation implementation.
 */

#include "sea/attestation.hh"

#include "common/bytebuf.hh"
#include "crypto/keycache.hh"
#include "crypto/sha1.hh"
#include "tpm/pcr.hh"

namespace mintcb::sea
{

namespace
{

const crypto::RsaPrivateKey &
caKey()
{
    return crypto::cachedKey("privacy-ca", 2048);
}

} // namespace

Bytes
AikCertificate::tbs() const
{
    ByteWriter w;
    w.str("AIK-CERT");
    w.lengthPrefixed(aikPublic);
    w.str(subject);
    return w.take();
}

PrivacyCa &
PrivacyCa::instance()
{
    static PrivacyCa ca;
    return ca;
}

const crypto::RsaPublicKey &
PrivacyCa::publicKey() const
{
    return caKey().pub;
}

AikCertificate
PrivacyCa::issue(const crypto::RsaPublicKey &aik,
                 const std::string &subject) const
{
    AikCertificate cert;
    cert.aikPublic = aik.encode();
    cert.subject = subject;
    cert.signature = crypto::rsaSignSha1(caKey(), cert.tbs());
    return cert;
}

Status
PrivacyCa::validate(const AikCertificate &cert) const
{
    if (!crypto::rsaVerifySha1(publicKey(), cert.tbs(),
                               cert.signature)) {
        return Error(Errc::integrityFailure,
                     "AIK certificate signature does not chain to the "
                     "Privacy CA");
    }
    return okStatus();
}

Bytes
Attestation::encode() const
{
    ByteWriter w;
    w.str("ATTEST");
    w.u32(static_cast<std::uint32_t>(quote.selection.size()));
    for (std::size_t i = 0; i < quote.selection.size(); ++i) {
        w.u32(static_cast<std::uint32_t>(quote.selection[i]));
        w.lengthPrefixed(quote.values[i]);
    }
    w.lengthPrefixed(quote.nonce);
    w.lengthPrefixed(quote.signature);
    w.lengthPrefixed(aikCert.aikPublic);
    w.str(aikCert.subject);
    w.lengthPrefixed(aikCert.signature);
    return w.take();
}

Result<Attestation>
Attestation::decode(const Bytes &wire)
{
    ByteReader r(wire);
    const std::string magic = r.getStr();
    if (r.ok() && magic != "ATTEST")
        return Error(Errc::integrityFailure, "not an attestation");
    Attestation a;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t index = r.getU32();
        Bytes value = r.getLengthPrefixed();
        if (!r.ok())
            break;
        a.quote.selection.push_back(index);
        a.quote.values.push_back(std::move(value));
    }
    a.quote.nonce = r.getLengthPrefixed();
    a.quote.signature = r.getLengthPrefixed();
    a.aikCert.aikPublic = r.getLengthPrefixed();
    a.aikCert.subject = r.getStr();
    a.aikCert.signature = r.getLengthPrefixed();
    return r.finish(std::move(a), Errc::integrityFailure,
                    "trailing attestation bytes");
}

Result<Attestation>
attestLaunch(machine::Machine &machine, CpuId cpu, const Bytes &nonce,
             const AikCertificate &cert)
{
    if (!machine.hasTpm())
        return Error(Errc::unavailable, "platform has no TPM to quote");
    auto &tpm = machine.tpmAs(cpu);
    std::vector<std::size_t> selection = {tpm::dynamicLaunchPcr};
    if (machine.spec().cpuVendor == machine::CpuVendor::intel)
        selection.push_back(tpm::intelMlePcr);
    auto quote = tpm.quote(nonce, selection);
    if (!quote)
        return quote.error();
    Attestation a;
    a.quote = quote.take();
    a.aikCert = cert;
    return a;
}

void
Verifier::trustPal(const Pal &pal)
{
    whitelist_.push_back(
        {pal.name(), pal.measurement(), pal.expectedPcr17()});
}

void
Verifier::trustMeasurement(std::string name, Bytes measurement)
{
    whitelist_.push_back(
        {std::move(name), measurement,
         tpm::extendPcr(Bytes(crypto::sha1DigestSize, 0x00),
                        measurement)});
}

Result<VerifiedLaunch>
Verifier::verify(const Attestation &attestation,
                 const Bytes &expected_nonce) const
{
    // 1. Certificate chain: the AIK must be endorsed by the Privacy CA.
    if (auto s = PrivacyCa::instance().validate(attestation.aikCert);
        !s.ok()) {
        return s.error();
    }
    auto aik = crypto::RsaPublicKey::decode(attestation.aikCert.aikPublic);
    if (!aik)
        return aik.error();

    // 2. Quote signature and nonce freshness.
    if (auto s = tpm::verifyQuote(*aik, attestation.quote,
                                  expected_nonce);
        !s.ok()) {
        return s.error();
    }

    // 3. Locate PCR 17 in the quoted selection.
    const Bytes *pcr17 = nullptr;
    for (std::size_t i = 0; i < attestation.quote.selection.size(); ++i) {
        if (attestation.quote.selection[i] == tpm::dynamicLaunchPcr)
            pcr17 = &attestation.quote.values[i];
    }
    if (!pcr17) {
        return Error(Errc::invalidArgument,
                     "attestation does not cover PCR 17");
    }

    // 4. Launch sanity: -1 means "rebooted, never launched"; 0 means
    //    "reset but nothing measured". Neither is a PAL identity.
    if (*pcr17 == Bytes(crypto::sha1DigestSize, 0xff) ||
        *pcr17 == Bytes(crypto::sha1DigestSize, 0x00)) {
        return Error(Errc::failedPrecondition,
                     "PCR 17 shows no late launch occurred");
    }

    // 5. Whitelist: the identity must match a trusted PAL.
    for (const Entry &e : whitelist_) {
        if (*pcr17 == e.expectedPcr17)
            return VerifiedLaunch{e.measurement, e.name};
    }
    return Error(Errc::permissionDenied,
                 "PCR 17 identity matches no trusted PAL");
}

Result<VerifiedLaunch>
Verifier::verifyFresh(const Attestation &attestation,
                      const Bytes &expected_nonce)
{
    // Replay check first: a remembered nonce must be refused even if
    // everything else about the quote still checks out (that is the
    // attack -- old evidence, perfectly signed).
    for (const Bytes &seen : seenNonces_) {
        if (seen == expected_nonce) {
            return Error(Errc::permissionDenied,
                         "quote nonce was already accepted once "
                         "(replayed attestation)");
        }
    }
    auto verdict = verify(attestation, expected_nonce);
    if (!verdict.ok())
        return verdict;
    seenNonces_.push_back(expected_nonce);
    while (seenNonces_.size() > nonceCapacity_)
        seenNonces_.pop_front();
    return verdict;
}

Status
Verifier::setNonceMemory(std::size_t nonces)
{
    if (nonces == 0) {
        return Error(Errc::invalidArgument,
                     "nonce memory of 0 would disable replay protection");
    }
    nonceCapacity_ = nonces;
    while (seenNonces_.size() > nonceCapacity_)
        seenNonces_.pop_front();
    return okStatus();
}

} // namespace mintcb::sea
