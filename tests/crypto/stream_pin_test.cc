/**
 * @file
 * Byte pins for the HMAC-SHA256 counter-mode stream at each of its
 * three users: sealed blobs, MWL1 mutation records and transport
 * sessions. Each pin is one SHA-256 over the encoded outputs at
 * payload lengths that straddle the 32-byte stream block (0, 1, 31,
 * 32, 33) plus two long streams (1000, 4096). Every input is seeded or
 * fixed, so a change to how the stream is generated must leave these
 * digests alone; each case also round-trips through its decoder.
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/keycache.hh"
#include "crypto/sha256.hh"
#include "store/wal.hh"
#include "tpm/blob.hh"
#include "tpm/transport.hh"

namespace mintcb
{
namespace
{

constexpr std::size_t pinLengths[] = {0, 1, 31, 32, 33, 1000, 4096};

Bytes
pattern(std::size_t len, std::uint8_t salt)
{
    Bytes out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(i * 131 + salt);
    return out;
}

/** Absorbs one length-prefixed output per case; hex of the digest. */
class Transcript
{
  public:
    void
    add(const Bytes &output)
    {
        ByteWriter w;
        w.lengthPrefixed(output);
        hash_.update(w.bytes());
    }

    std::string hex() { return toHex(crypto::toBytes(hash_.finish())); }

  private:
    crypto::Sha256 hash_;
};

TEST(StreamPin, SealedBlobs)
{
    const crypto::RsaPrivateKey &srk =
        crypto::cachedKey("stream-pin-srk", 512);
    const tpm::SealPolicy policy{{17, Bytes(20, 0x17)}};
    Transcript transcript;
    for (std::size_t len : pinLengths) {
        Rng rng(1000 + len);
        const Bytes payload = pattern(len, 0x11);
        const tpm::SealedBlob blob =
            tpm::sealBlob(srk.pub, rng, payload, policy);
        ASSERT_EQ(blob.ciphertext.size(), len);
        transcript.add(blob.encode());
        auto plain = tpm::unsealBlob(srk, blob);
        ASSERT_TRUE(plain.ok()) << len;
        EXPECT_EQ(*plain, payload) << len;
    }
    EXPECT_EQ(transcript.hex(), "47ea3baadc129cffc8fefed7682f9de4"
                                "d6b47239ed8846d882a4b8c31cfad53b");
}

TEST(StreamPin, WalMutations)
{
    const Bytes log_key = pattern(32, 0x4c);
    Transcript transcript;
    for (std::size_t len : pinLengths) {
        store::Mutation m;
        m.key = "pin-" + std::to_string(len);
        m.value = pattern(len, 0x22);
        m.seq = 7000 + len;
        const Bytes payload = store::encodeMutation(log_key, m);
        transcript.add(payload);
        auto back = store::decodeMutation(log_key, payload, false);
        ASSERT_TRUE(back.ok()) << len;
        EXPECT_EQ(back->key, m.key);
        EXPECT_EQ(back->value, m.value);
        EXPECT_EQ(back->seq, m.seq);
    }
    EXPECT_EQ(transcript.hex(), "ae30eb0e034ceec647be26c05bf4b895"
                                "c24bfe32c24dbc67cb600b7ce0d65bc2");
}

/**
 * Both directions of a resumed session (epoch 1). The command is
 * getRandom with the count in the pcr field and a patterned payload,
 * so the command stream is 9 + len bytes and the response stream
 * (status, length-prefixed random bytes) 5 + len bytes.
 */
TEST(StreamPin, TransportBothDirections)
{
    tpm::Tpm chip(tpm::TpmVendor::ideal, 21);
    tpm::TpmTransportServer server(chip);
    Rng rng(21);
    const Bytes key = pattern(32, 0x5e);
    auto opened =
        tpm::TransportClient::openWithKey(chip.srkPublic(), rng, key);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(server.accept(opened->envelope).ok());
    auto epoch = server.acceptResumed(key);
    ASSERT_TRUE(epoch.ok());
    ASSERT_EQ(*epoch, 1u);
    auto client = tpm::TransportClient::resume(key, *epoch);
    ASSERT_TRUE(client.ok());

    Transcript transcript;
    for (std::size_t len : pinLengths) {
        const tpm::WrappedMessage command = client->wrapCommand(
            tpm::TransportOp::getRandom, static_cast<std::uint32_t>(len),
            pattern(len, 0x33));
        ASSERT_EQ(command.ciphertext.size(), 9 + len);
        transcript.add(command.encode());
        auto response = server.execute(command);
        ASSERT_TRUE(response.ok()) << len;
        ASSERT_EQ(response->ciphertext.size(), 5 + len);
        transcript.add(response->encode());
        auto plain = client->unwrapResponse(*response);
        ASSERT_TRUE(plain.ok()) << len;
        ByteReader r(*plain);
        EXPECT_EQ(r.getU8(), 0u);
        EXPECT_EQ(r.getLengthPrefixed().size(), len);
        EXPECT_TRUE(r.finish(Errc::integrityFailure, "trailing").ok());
    }
    EXPECT_EQ(transcript.hex(), "fc8c13f4964101c5e6a4469890656d8a"
                                "a0cfc320b769234fe2e299767992df95");
}

} // namespace
} // namespace mintcb
