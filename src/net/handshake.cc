/**
 * @file
 * Attested-identity implementation.
 */

#include "net/handshake.hh"

#include "common/bytebuf.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "latelaunch/latelaunch.hh"
#include "tpm/transport.hh"

namespace mintcb::net
{

namespace
{

/** Where the identity SLB is staged for the launch. */
constexpr PhysAddr identitySlbAddr = 0x10000;

} // namespace

Bytes
resumeProof(const Bytes &secret, const Bytes &id, std::uint64_t epoch,
            const Bytes &nonce)
{
    ByteWriter w;
    w.raw(id);
    w.u64(epoch);
    w.raw(nonce);
    return crypto::hmacSha256(tpm::epochKey(secret, epoch), w.bytes());
}

Bytes
resumedProof(const Bytes &secret, std::uint64_t epoch, const Bytes &nonce)
{
    return crypto::hmacSha256(tpm::epochKey(secret, epoch), nonce);
}

Bytes
aikFingerprint(const Bytes &aik_public)
{
    return crypto::Sha256::digestBytes(aik_public);
}

AttestedIdentity::AttestedIdentity(std::string subject,
                                   const sea::Pal &identity_pal,
                                   std::uint64_t seed,
                                   machine::PlatformId platform)
    : subject_(std::move(subject)), pal_(identity_pal),
      machine_(machine::PlatformSpec::forPlatform(platform), seed)
{
    latelaunch::LateLaunch launcher(machine_);
    if (auto s = machine_.writeAs(0, identitySlbAddr, pal_.slbImage());
        !s.ok()) {
        launchStatus_ = s.error();
        return;
    }
    auto report = launcher.invoke(0, identitySlbAddr);
    if (!report.ok()) {
        launchStatus_ = report.error();
        return;
    }
    launcher.resumeOtherCpus();
}

Result<sea::Attestation>
AttestedIdentity::attest(const Bytes &nonce)
{
    if (!ok())
        return launchStatus_.error();
    if (!machine_.hasTpm())
        return Error(Errc::unavailable, "platform has no TPM to quote");
    if (!aikCert_) {
        aikCert_ = sea::PrivacyCa::instance().issue(
            machine_.tpm().aikPublic(), subject_);
    }
    return sea::attestLaunch(machine_, 0, nonce, *aikCert_);
}

Bytes
AttestedIdentity::freshNonce()
{
    return machine_.rng().bytes(handshakeNonceBytes);
}

Bytes
AttestedIdentity::aikFingerprint()
{
    return net::aikFingerprint(machine_.tpm().aikPublic().encode());
}

sea::Pal
AttestedIdentity::gatewayPal()
{
    return sea::Pal::fromLogic("mintcb-gate", 8 * 1024,
                               [](sea::PalContext &) {
                                   return okStatus();
                               });
}

sea::Pal
AttestedIdentity::clientPal(const std::string &name)
{
    return sea::Pal::fromLogic(name, 4 * 1024, [](sea::PalContext &) {
        return okStatus();
    });
}

} // namespace mintcb::net
