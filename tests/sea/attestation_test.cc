/**
 * @file
 * Attestation and external-verification tests (the External Verification
 * property from Section 3.1).
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "sea/attestation.hh"
#include "sea/session.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

/** The Privacy CA's certificate for @p m's AIK. */
AikCertificate
certify(Machine &m, const std::string &subject)
{
    return PrivacyCa::instance().issue(m.tpm().aikPublic(), subject);
}

Pal
attestedPal()
{
    return Pal::fromLogic("attested-pal", 2048, [](PalContext &ctx) {
        ctx.setOutput(asciiBytes("result"));
        return okStatus();
    });
}

/** Launch the PAL, then attest while its identity is still in PCR 17. */
Attestation
launchAndAttest(Machine &m, const Pal &pal, const Bytes &nonce)
{
    latelaunch::LateLaunch launcher(m);
    EXPECT_TRUE(m.writeAs(0, 0x10000, pal.slbImage()).ok());
    EXPECT_TRUE(launcher.invoke(0, 0x10000).ok());
    auto attestation = attestLaunch(m, 0, nonce, certify(m, "hp-dc5750"));
    EXPECT_TRUE(attestation.ok());
    launcher.resumeOtherCpus();
    return attestation.take();
}

TEST(PrivacyCa, IssuesAndValidatesCertificates)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    auto cert =
        PrivacyCa::instance().issue(m.tpm().aikPublic(), "machine-a");
    EXPECT_TRUE(PrivacyCa::instance().validate(cert).ok());
}

TEST(PrivacyCa, RejectsTamperedCertificate)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    auto cert = PrivacyCa::instance().issue(m.tpm().aikPublic(), "a");
    cert.subject = "b"; // claim a different platform
    auto verdict = PrivacyCa::instance().validate(cert);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::integrityFailure);
}

TEST(Verifier, AcceptsGenuineLaunchOfTrustedPal)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("verifier-nonce-1");
    const Attestation a = launchAndAttest(m, pal, nonce);

    Verifier verifier;
    verifier.trustPal(pal);
    auto verdict = verifier.verify(a, nonce);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->palName, "attested-pal");
    EXPECT_EQ(verdict->palMeasurement, pal.measurement());
}

TEST(Verifier, RejectsUntrustedPal)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Bytes nonce = asciiBytes("n2");
    const Attestation a = launchAndAttest(m, attestedPal(), nonce);

    Verifier verifier; // empty whitelist
    auto verdict = verifier.verify(a, nonce);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::permissionDenied);
}

TEST(Verifier, RejectsStaleNonce)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Attestation a = launchAndAttest(m, pal, asciiBytes("old"));
    Verifier verifier;
    verifier.trustPal(pal);
    EXPECT_FALSE(verifier.verify(a, asciiBytes("new")).ok());
}

TEST(Verifier, RejectsNoLaunchStates)
{
    // A quote from a machine that never late launched (PCR 17 = -1)
    // must not verify, and neither must a bare dynamic reset (= 0).
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Bytes nonce = asciiBytes("n3");
    auto a = attestLaunch(m, 0, nonce, certify(m, "subject"));
    ASSERT_TRUE(a.ok());

    Verifier verifier;
    verifier.trustPal(attestedPal());
    auto verdict = verifier.verify(*a, nonce);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::failedPrecondition);
}

TEST(Verifier, RejectsSoftwareForgedIdentity)
{
    // Ring-0 malware extends PCR 17 with the trusted PAL's measurement
    // WITHOUT launching it. The resulting PCR value differs from the
    // launch identity because software cannot reset PCR 17 first.
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("n4");

    // Attacker: extend the measurement onto the boot value (-1).
    ASSERT_TRUE(m.tpmAs(0).pcrExtend(17, pal.measurement()).ok());
    auto a = attestLaunch(m, 0, nonce, certify(m, "subject"));
    ASSERT_TRUE(a.ok());

    Verifier verifier;
    verifier.trustPal(pal);
    auto verdict = verifier.verify(*a, nonce);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::permissionDenied);
}

TEST(Verifier, RejectsQuoteSignedByUnendorsedAik)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("n5");
    Attestation a = launchAndAttest(m, pal, nonce);

    // Substitute a certificate that the Privacy CA never issued.
    a.aikCert.signature[0] ^= 0x01;
    Verifier verifier;
    verifier.trustPal(pal);
    auto verdict = verifier.verify(a, nonce);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::integrityFailure);
}

TEST(Verifier, RejectsAttestationWithoutPcr17)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Bytes nonce = asciiBytes("n6");
    auto quote = m.tpmAs(0).quote(nonce, {16});
    ASSERT_TRUE(quote.ok());
    Attestation a;
    a.quote = quote.take();
    a.aikCert = PrivacyCa::instance().issue(m.tpm().aikPublic(), "s");

    Verifier verifier;
    auto verdict = verifier.verify(a, nonce);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error().code, Errc::invalidArgument);
}

TEST(Attestation, WireRoundTrip)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("wire");
    const Attestation a = launchAndAttest(m, pal, nonce);

    auto decoded = Attestation::decode(a.encode());
    ASSERT_TRUE(decoded.ok());
    Verifier verifier;
    verifier.trustPal(pal);
    EXPECT_TRUE(verifier.verify(*decoded, nonce).ok());
}

TEST(Attestation, DecodeRejectsGarbageAndTruncation)
{
    EXPECT_FALSE(Attestation::decode(asciiBytes("nonsense")).ok());
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Attestation a =
        launchAndAttest(m, attestedPal(), asciiBytes("t"));
    Bytes wire = a.encode();
    wire.resize(wire.size() / 2);
    EXPECT_FALSE(Attestation::decode(wire).ok());
}

TEST(Verifier, VerifyFreshRejectsReplayedQuote)
{
    // The attack verifyFresh exists for: an attacker records a
    // perfectly valid (nonce, quote) pair and replays it into a new
    // session. Everything about the evidence still checks out -- only
    // the verifier's memory can refuse it.
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("fresh-once");
    const Attestation a = launchAndAttest(m, pal, nonce);

    Verifier verifier;
    verifier.trustPal(pal);
    ASSERT_TRUE(verifier.verifyFresh(a, nonce).ok());
    EXPECT_EQ(verifier.seenNonceCount(), 1u);

    auto replay = verifier.verifyFresh(a, nonce);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::permissionDenied);
    // Plain verify still passes -- the replay refusal is the memory,
    // not the evidence.
    EXPECT_TRUE(verifier.verify(a, nonce).ok());
}

TEST(Verifier, VerifyFreshRejectsWrongNonce)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Attestation a = launchAndAttest(m, pal, asciiBytes("asked"));

    Verifier verifier;
    verifier.trustPal(pal);
    auto verdict = verifier.verifyFresh(a, asciiBytes("answered"));
    ASSERT_FALSE(verdict.ok());
    // A failed verification must not pollute the replay memory.
    EXPECT_EQ(verifier.seenNonceCount(), 0u);
}

TEST(Verifier, VerifyFreshAcceptsDistinctNonces)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    Verifier verifier;
    verifier.trustPal(pal);
    for (int i = 0; i < 3; ++i) {
        const Bytes nonce = asciiBytes("session-" + std::to_string(i));
        Machine fresh = Machine::forPlatform(PlatformId::hpDc5750);
        const Attestation a = launchAndAttest(fresh, pal, nonce);
        EXPECT_TRUE(verifier.verifyFresh(a, nonce).ok());
    }
    EXPECT_EQ(verifier.seenNonceCount(), 3u);
}

TEST(Verifier, NonceMemoryIsBoundedFifo)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    Verifier verifier;
    verifier.trustPal(pal);
    ASSERT_TRUE(verifier.setNonceMemory(2).ok());

    Bytes nonces[3] = {asciiBytes("m0"), asciiBytes("m1"),
                       asciiBytes("m2")};
    Attestation atts[3];
    for (int i = 0; i < 3; ++i) {
        Machine fresh = Machine::forPlatform(PlatformId::hpDc5750);
        atts[i] = launchAndAttest(fresh, pal, nonces[i]);
    }
    ASSERT_TRUE(verifier.verifyFresh(atts[0], nonces[0]).ok());
    ASSERT_TRUE(verifier.verifyFresh(atts[1], nonces[1]).ok());
    ASSERT_TRUE(verifier.verifyFresh(atts[2], nonces[2]).ok());
    EXPECT_EQ(verifier.seenNonceCount(), 2u); // m0 evicted

    // Recent nonces still refuse; the evicted one is forgotten (the
    // documented bound: size the memory above concurrent sessions).
    EXPECT_FALSE(verifier.verifyFresh(atts[2], nonces[2]).ok());
    EXPECT_TRUE(verifier.verifyFresh(atts[0], nonces[0]).ok());

    // Shrinking the capacity trims existing memory immediately.
    ASSERT_TRUE(verifier.setNonceMemory(1).ok());
    EXPECT_EQ(verifier.seenNonceCount(), 1u);
}

TEST(Verifier, ZeroNonceMemoryIsRefusedAndReplayStaysRefused)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("z0");
    const Attestation a = launchAndAttest(m, pal, nonce);
    Verifier verifier;
    verifier.trustPal(pal);

    const Status refused = verifier.setNonceMemory(0);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::invalidArgument);
    EXPECT_EQ(verifier.nonceMemory(), 1024u);

    // The memory still holds what it accepts: the same quote twice is
    // a replay.
    ASSERT_TRUE(verifier.verifyFresh(a, nonce).ok());
    auto replay = verifier.verifyFresh(a, nonce);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::permissionDenied);
}

TEST(Attestation, TrustMeasurementMatchesTrustPal)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    const Pal pal = attestedPal();
    const Bytes nonce = asciiBytes("n7");
    const Attestation a = launchAndAttest(m, pal, nonce);

    Verifier verifier;
    verifier.trustMeasurement("by-digest", pal.measurement());
    auto verdict = verifier.verify(a, nonce);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->palName, "by-digest");
}

} // namespace
} // namespace mintcb::sea
