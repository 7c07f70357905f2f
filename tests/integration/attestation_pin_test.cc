/**
 * @file
 * Byte-for-byte pins of real attestations from every holder of an AIK:
 * the gateway and client attested identities, the sealed store's
 * migration quote, and the trusted-boot platform. Each digest covers
 * the encoded quotes *and* AIK certificates of successive attests, so
 * a change to the quote, the certificate, the subject, the nonce
 * stream or the PCR state changes a digest.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/hex.hh"
#include "crypto/sha256.hh"
#include "net/handshake.hh"
#include "sea/measuredboot.hh"
#include "store/engine.hh"
#include "store/storetest.hh"

namespace mintcb
{
namespace
{

/** Append @p attestation's encoding to @p transcript. */
void
record(Bytes &transcript, const Result<sea::Attestation> &attestation)
{
    ASSERT_TRUE(attestation.ok()) << attestation.error().message;
    const Bytes wire = attestation->encode();
    transcript.insert(transcript.end(), wire.begin(), wire.end());
}

std::string
sha256Hex(const Bytes &transcript)
{
    return toHex(crypto::Sha256::digestBytes(transcript));
}

/** Two attests over the identity's own successive fresh nonces. */
std::string
identityTranscript(net::AttestedIdentity &identity)
{
    EXPECT_TRUE(identity.ok());
    Bytes transcript;
    for (int i = 0; i < 2; ++i)
        record(transcript, identity.attest(identity.freshNonce()));
    return sha256Hex(transcript);
}

TEST(AttestationPin, GatewayIdentity)
{
    net::AttestedIdentity identity(
        "mintcb-gate", net::AttestedIdentity::gatewayPal(), 1);
    EXPECT_EQ(identityTranscript(identity), "ea173d1a3c770b78b665e1fa82c7a8be"
                                            "45cb12b37457a14eeb42c27508e3113c");
}

TEST(AttestationPin, ClientIdentity)
{
    net::AttestedIdentity identity(
        "mintcb-client", net::AttestedIdentity::clientPal(), 2);
    EXPECT_EQ(identityTranscript(identity), "3d3e836d089b350863e38af59d286f4c"
                                            "bbfef9d85a478d3ad65edcecfeee54fd");
}

TEST(AttestationPin, StoreMigrationQuote)
{
    storetest::TempDir tmp;
    auto opened = store::SealedStore::open(storetest::configFor(tmp));
    ASSERT_TRUE(opened.ok());
    auto &store = *opened;
    Bytes transcript;
    record(transcript, store->attestForMigration(asciiBytes("pin-1")));
    record(transcript, store->attestForMigration(asciiBytes("pin-2")));
    EXPECT_EQ(sha256Hex(transcript), "09cb789fc4bec73973d643da2f587952"
                                     "735ce59f2854047904af241a49e04027");
}

TEST(AttestationPin, TrustedBootQuote)
{
    machine::Machine machine =
        machine::Machine::forPlatform(machine::PlatformId::hpDc5750);
    sea::MeasuredBoot boot(machine);
    ASSERT_TRUE(boot.bootTypicalStack().ok());
    Bytes transcript;
    record(transcript, boot.attest(asciiBytes("tb-pin-1")));
    record(transcript, boot.attest(asciiBytes("tb-pin-2")));
    EXPECT_EQ(sha256Hex(transcript), "ea86295df74e56ca8ede57c478e313e6"
                                     "b27aa4130154ad4c81dc95ce67befa5b");
}

} // namespace
} // namespace mintcb
