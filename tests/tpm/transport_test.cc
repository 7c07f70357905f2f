/**
 * @file
 * TPM transport-session tests (Section 3.3: the untrusted south bridge /
 * LPC path must be unable to read, modify, or replay TPM traffic).
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/hmac.hh"
#include "tpm/transport.hh"

namespace mintcb::tpm
{
namespace
{

class TransportTest : public ::testing::Test
{
  protected:
    TransportTest() : tpm_(TpmVendor::ideal), server_(tpm_), rng_(77)
    {
        auto opened = TransportClient::open(tpm_.srkPublic(), rng_);
        EXPECT_TRUE(opened.ok());
        client_.emplace(std::move(opened->client));
        EXPECT_TRUE(server_.accept(opened->envelope).ok());
    }

    Tpm tpm_;
    TpmTransportServer server_;
    Rng rng_;
    std::optional<TransportClient> client_;
};

TEST_F(TransportTest, PcrReadRoundTrip)
{
    auto wrapped = client_->wrapCommand(TransportOp::pcrRead, 5, {});
    auto response = server_.execute(wrapped);
    ASSERT_TRUE(response.ok());
    auto plain = client_->unwrapResponse(*response);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ((*plain)[0], 0); // status ok
}

TEST_F(TransportTest, ExtendThroughTunnelAffectsRealPcr)
{
    const Bytes digest(20, 0x5a);
    auto wrapped = client_->wrapCommand(TransportOp::pcrExtend, 5, digest);
    ASSERT_TRUE(server_.execute(wrapped).ok());
    EXPECT_NE(*tpm_.pcrRead(5), Bytes(20, 0x00));
}

TEST_F(TransportTest, GetRandomThroughTunnel)
{
    auto wrapped = client_->wrapCommand(TransportOp::getRandom, 16, {});
    auto response = server_.execute(wrapped);
    ASSERT_TRUE(response.ok());
    auto plain = client_->unwrapResponse(*response);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain->size(), 1 + 4 + 16u); // status + len + bytes
}

TEST_F(TransportTest, EavesdropperSeesNoPlaintext)
{
    const Bytes digest(20, 0x77);
    auto wrapped = client_->wrapCommand(TransportOp::pcrExtend, 17,
                                        digest);
    // The digest must not appear in the ciphertext.
    const Bytes &ct = wrapped.ciphertext;
    bool found = false;
    if (ct.size() >= digest.size()) {
        for (std::size_t i = 0; i + digest.size() <= ct.size(); ++i) {
            found |= std::equal(digest.begin(), digest.end(),
                                ct.begin() + static_cast<long>(i));
        }
    }
    EXPECT_FALSE(found);
}

TEST_F(TransportTest, OnPathTamperingDetectedWithoutStateChange)
{
    const Bytes before = *tpm_.pcrRead(6);
    auto wrapped = client_->wrapCommand(TransportOp::pcrExtend, 6,
                                        Bytes(20, 0x11));
    wrapped.ciphertext[2] ^= 0x01; // south-bridge attacker
    auto response = server_.execute(wrapped);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.error().code, Errc::integrityFailure);
    EXPECT_EQ(*tpm_.pcrRead(6), before); // nothing executed
}

TEST_F(TransportTest, MacTamperingDetected)
{
    auto wrapped = client_->wrapCommand(TransportOp::pcrRead, 0, {});
    wrapped.mac[0] ^= 0xff;
    EXPECT_FALSE(server_.execute(wrapped).ok());
}

TEST_F(TransportTest, ReplayRejected)
{
    auto wrapped = client_->wrapCommand(TransportOp::pcrExtend, 7,
                                        Bytes(20, 0x22));
    ASSERT_TRUE(server_.execute(wrapped).ok());
    const Bytes after_first = *tpm_.pcrRead(7);
    // The attacker resends the captured message.
    auto replay = server_.execute(wrapped);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::integrityFailure);
    EXPECT_EQ(*tpm_.pcrRead(7), after_first);
}

TEST_F(TransportTest, ResponseTamperingDetectedByClient)
{
    auto wrapped = client_->wrapCommand(TransportOp::pcrRead, 0, {});
    auto response = server_.execute(wrapped);
    ASSERT_TRUE(response.ok());
    response->ciphertext[0] ^= 0x40;
    EXPECT_FALSE(client_->unwrapResponse(*response).ok());
}

TEST_F(TransportTest, CommandsBeforeSessionRejected)
{
    Tpm fresh(TpmVendor::ideal);
    TpmTransportServer cold(fresh);
    auto wrapped = client_->wrapCommand(TransportOp::pcrRead, 0, {});
    auto response = cold.execute(wrapped);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.error().code, Errc::failedPrecondition);
}

TEST_F(TransportTest, WrongSessionKeyCannotIssueCommands)
{
    // A second client with its own key talks to the same server: the
    // server's session key differs, so its messages are rejected.
    Rng other_rng(999);
    auto mallory = TransportClient::open(tpm_.srkPublic(), other_rng);
    ASSERT_TRUE(mallory.ok());
    // Server never accepted mallory's envelope.
    auto wrapped = mallory->client.wrapCommand(TransportOp::pcrExtend, 17,
                                               Bytes(20, 0x00));
    EXPECT_FALSE(server_.execute(wrapped).ok());
}

TEST(TransportResumption, StaleEpochTrafficRejectedAfterResume)
{
    Tpm tpm(TpmVendor::ideal);
    TpmTransportServer server(tpm);
    Rng rng(31);
    const Bytes key = rng.bytes(32);
    auto opened = TransportClient::openWithKey(tpm.srkPublic(), rng, key);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(server.accept(opened->envelope).ok());

    // Epoch 0: the attacker records a wrapped extend off the bus.
    auto recorded = opened->client.wrapCommand(TransportOp::pcrExtend, 9,
                                               Bytes(20, 0x33));
    ASSERT_TRUE(server.execute(recorded).ok());
    const Bytes after_first = *tpm.pcrRead(9);

    // Resumption restarts the counters -- but under a fresh epoch key.
    auto epoch = server.acceptResumed(key);
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(*epoch, 1u);
    auto resumed = TransportClient::resume(key, *epoch);
    ASSERT_TRUE(resumed.ok());

    // Replaying the epoch-0 recording into the resumed session must
    // fail the MAC and leave the audit PCR untouched.
    auto replay = server.execute(recorded);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::integrityFailure);
    EXPECT_EQ(*tpm.pcrRead(9), after_first);

    // Fresh traffic in the new epoch still round-trips.
    auto wrapped = resumed->wrapCommand(TransportOp::pcrExtend, 9,
                                        Bytes(20, 0x44));
    ASSERT_TRUE(server.execute(wrapped).ok());
    EXPECT_NE(*tpm.pcrRead(9), after_first);
}

TEST(TransportResumption, UnknownKeyCannotResume)
{
    Tpm tpm(TpmVendor::ideal);
    TpmTransportServer server(tpm);
    Rng rng(32);
    auto epoch = server.acceptResumed(rng.bytes(32));
    ASSERT_FALSE(epoch.ok());
    EXPECT_EQ(epoch.error().code, Errc::notFound);
}

TEST_F(TransportTest, WireEncodingRoundTrips)
{
    auto wrapped = client_->wrapCommand(TransportOp::pcrRead, 3, {});
    auto decoded = WrappedMessage::decode(wrapped.encode());
    ASSERT_TRUE(decoded.ok());
    auto response = server_.execute(*decoded);
    EXPECT_TRUE(response.ok());
}

TEST_F(TransportTest, TruncatedBatchRunsOnlyItsCompleteSubCommands)
{
    // Claims three sub-commands: two complete extends of PCR 5, then a
    // third extend cut off inside its PCR field.
    ByteWriter inner;
    inner.u32(3);
    for (int i = 0; i < 2; ++i) {
        inner.u8(static_cast<std::uint8_t>(TransportOp::pcrExtend));
        inner.u32(5);
        inner.lengthPrefixed(Bytes(20, 0x5a));
    }
    inner.u8(static_cast<std::uint8_t>(TransportOp::pcrExtend));
    inner.u16(0);
    const Bytes pcr0 = *tpm_.pcrRead(0);
    const std::uint64_t batched = server_.stats().batchedCommands;

    auto response = server_.execute(
        client_->wrapCommand(TransportOp::batch, 0, inner.bytes()));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.error().code, Errc::integrityFailure);
    EXPECT_EQ(response.error().message,
              "truncated blob while reading u32");
    // The two complete extends ran; the torn third never reached the
    // TPM (a zero PCR index would have extended PCR 0).
    EXPECT_EQ(server_.stats().batchedCommands, batched + 2);
    EXPECT_EQ(*tpm_.pcrRead(0), pcr0);
}

/**
 * Reference wrap, written from the construction documented in
 * tpm/transport.cc rather than through the client: ciphertext =
 * plaintext XOR HMAC-SHA256(k, "ts-enc" || dir || counter || i) per
 * 32-byte block i, MAC = HMAC-SHA256(k, "ts-mac" || dir || counter ||
 * u32 length || ciphertext). It can frame a plaintext no client would.
 */
WrappedMessage
referenceWrap(const Bytes &key, std::uint8_t direction,
              std::uint64_t counter, const Bytes &plaintext)
{
    WrappedMessage m;
    m.ciphertext = plaintext;
    for (std::size_t i = 0; i < plaintext.size(); i += 32) {
        ByteWriter block;
        block.str("ts-enc");
        block.u8(direction);
        block.u64(counter);
        block.u64(i / 32);
        const Bytes stream = crypto::hmacSha256(key, block.bytes());
        for (std::size_t j = i; j < plaintext.size() && j < i + 32; ++j)
            m.ciphertext[j] ^= stream[j - i];
    }
    ByteWriter mac;
    mac.str("ts-mac");
    mac.u8(direction);
    mac.u64(counter);
    mac.u32(static_cast<std::uint32_t>(m.ciphertext.size()));
    mac.raw(m.ciphertext);
    m.mac = crypto::hmacSha256(key, mac.bytes());
    return m;
}

TEST(TransportFraming, SingleCommandWithTrailingByteIsRefused)
{
    Tpm tpm(TpmVendor::ideal);
    TpmTransportServer server(tpm);
    Rng rng(41);
    const Bytes master = rng.bytes(32);
    auto opened = TransportClient::openWithKey(tpm.srkPublic(), rng,
                                               master);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(server.accept(opened->envelope).ok());
    const Bytes key = epochKey(master, 0);
    constexpr std::uint8_t toTpm = 0x01;

    ByteWriter plain;
    plain.u8(static_cast<std::uint8_t>(TransportOp::pcrExtend));
    plain.u32(5);
    plain.lengthPrefixed(Bytes(20, 0x5a));
    // The reference agrees with the client on the well-formed command.
    const WrappedMessage honest = opened->client.wrapCommand(
        TransportOp::pcrExtend, 5, Bytes(20, 0x5a));
    const WrappedMessage reference =
        referenceWrap(key, toTpm, 0, plain.bytes());
    EXPECT_EQ(reference.ciphertext, honest.ciphertext);
    EXPECT_EQ(reference.mac, honest.mac);

    // The same extend with one extra byte, correctly MAC'd.
    plain.u8(0xee);
    const Bytes before = *tpm.pcrRead(5);
    auto response =
        server.execute(referenceWrap(key, toTpm, 0, plain.bytes()));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.error().code, Errc::integrityFailure);
    EXPECT_EQ(response.error().message, "trailing transport bytes");
    EXPECT_EQ(*tpm.pcrRead(5), before);
    EXPECT_EQ(server.stats().rejected, 1u);
    EXPECT_EQ(server.stats().commands, 0u);
}

} // namespace
} // namespace mintcb::tpm
