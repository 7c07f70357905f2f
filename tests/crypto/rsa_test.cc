/**
 * @file
 * RSA unit and round-trip tests.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "crypto/keycache.hh"
#include "crypto/rsa.hh"

namespace mintcb::crypto
{
namespace
{

// 512-bit keys keep signing tests fast; the cached 2048-bit key checks the
// TPM-realistic size once.
const RsaPrivateKey &
testKey()
{
    return cachedKey("rsa-unit-test", 512);
}

TEST(Rsa, KeyInternalConsistency)
{
    const RsaPrivateKey &key = testKey();
    EXPECT_EQ(key.pub.n, key.p * key.q);
    EXPECT_EQ(key.pub.e, BigNum(65537));
    // e*d = 1 mod lcm(p-1, q-1) implies e*d = 1 mod (p-1) and (q-1).
    const BigNum ed = key.pub.e * key.d;
    EXPECT_EQ(ed % key.p.subU64(1), BigNum(1));
    EXPECT_EQ(ed % key.q.subU64(1), BigNum(1));
    EXPECT_EQ((key.q * key.qInv) % key.p, BigNum(1));
}

TEST(Rsa, UnsupportedWidthIsATypedRefusal)
{
    Rng rng(9);
    for (std::size_t bits : {0u, 2u, 64u, 129u}) {
        auto key = rsaGenerate(rng, bits);
        ASSERT_FALSE(key.ok()) << bits;
        EXPECT_EQ(key.error().code, Errc::invalidArgument) << bits;
    }
}

TEST(Rsa, PrivateThenPublicIsIdentity)
{
    const RsaPrivateKey &key = testKey();
    const BigNum m = BigNum::fromHexString("123456789abcdef0");
    const BigNum s = rsaPrivateOp(key, m);
    EXPECT_EQ(rsaPublicOp(key.pub, s), m);
}

TEST(Rsa, PublicThenPrivateIsIdentity)
{
    const RsaPrivateKey &key = testKey();
    const BigNum m = BigNum::fromHexString("cafebabe");
    EXPECT_EQ(rsaPrivateOp(key, rsaPublicOp(key.pub, m)), m);
}

TEST(Rsa, SignVerifyRoundTrip)
{
    const RsaPrivateKey &key = testKey();
    const Bytes msg = asciiBytes("attest: PCR17 composite");
    const Bytes sig = rsaSignSha1(key, msg);
    EXPECT_EQ(sig.size(), key.pub.modulusBytes());
    EXPECT_TRUE(rsaVerifySha1(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessage)
{
    const RsaPrivateKey &key = testKey();
    const Bytes sig = rsaSignSha1(key, asciiBytes("original"));
    EXPECT_FALSE(rsaVerifySha1(key.pub, asciiBytes("forged"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature)
{
    const RsaPrivateKey &key = testKey();
    const Bytes msg = asciiBytes("msg");
    Bytes sig = rsaSignSha1(key, msg);
    sig[5] ^= 0x01;
    EXPECT_FALSE(rsaVerifySha1(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey)
{
    const RsaPrivateKey &key = testKey();
    const RsaPrivateKey &other = cachedKey("rsa-unit-test-2", 512);
    const Bytes msg = asciiBytes("msg");
    EXPECT_FALSE(rsaVerifySha1(other.pub, msg, rsaSignSha1(key, msg)));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature)
{
    const RsaPrivateKey &key = testKey();
    EXPECT_FALSE(rsaVerifySha1(key.pub, asciiBytes("m"), Bytes(10, 0)));
}

TEST(Rsa, EncryptDecryptRoundTrip)
{
    const RsaPrivateKey &key = testKey();
    Rng rng(17);
    const Bytes plaintext = asciiBytes("sealed symmetric key");
    auto ct = rsaEncrypt(key.pub, rng, plaintext);
    ASSERT_TRUE(ct.ok());
    auto pt = rsaDecrypt(key, *ct);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*pt, plaintext);
}

TEST(Rsa, OperationCountsAreExact)
{
    const RsaPrivateKey &key = testKey();
    Rng rng(23);
    const Bytes msg = asciiBytes("count me");
    const RsaOpCounts before = rsaOpCounts();
    const Bytes sig = rsaSignSha1(key, msg);          // private
    EXPECT_TRUE(rsaVerifySha1(key.pub, msg, sig));    // public
    auto ct = rsaEncrypt(key.pub, rng, msg);          // public
    ASSERT_TRUE(ct.ok());
    EXPECT_TRUE(rsaDecrypt(key, *ct).ok());           // private
    // A signature refused on length never reaches the public op.
    EXPECT_FALSE(rsaVerifySha1(key.pub, msg, Bytes(3, 0)));
    const RsaOpCounts after = rsaOpCounts();
    EXPECT_EQ(after.privateOps - before.privateOps, 2u);
    EXPECT_EQ(after.publicOps - before.publicOps, 2u);
}

TEST(Rsa, EncryptionIsRandomized)
{
    const RsaPrivateKey &key = testKey();
    Rng rng(18);
    const Bytes plaintext = asciiBytes("same message");
    auto c1 = rsaEncrypt(key.pub, rng, plaintext);
    auto c2 = rsaEncrypt(key.pub, rng, plaintext);
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(c2.ok());
    EXPECT_NE(*c1, *c2);
}

TEST(Rsa, EncryptRejectsOversizedPlaintext)
{
    const RsaPrivateKey &key = testKey();
    Rng rng(19);
    const Bytes too_big(key.pub.modulusBytes() - 10, 0x41);
    auto ct = rsaEncrypt(key.pub, rng, too_big);
    ASSERT_FALSE(ct.ok());
    EXPECT_EQ(ct.error().code, Errc::invalidArgument);
}

TEST(Rsa, DecryptRejectsCorruptedCiphertext)
{
    const RsaPrivateKey &key = testKey();
    Rng rng(20);
    auto ct = rsaEncrypt(key.pub, rng, asciiBytes("secret"));
    ASSERT_TRUE(ct.ok());
    (*ct)[0] ^= 0x80;
    auto pt = rsaDecrypt(key, *ct);
    // Either padding failure or (rarely) garbage; it must never equal the
    // original silently.
    if (pt.ok()) {
        EXPECT_NE(*pt, asciiBytes("secret"));
    }
}

TEST(Rsa, PublicKeyEncodingRoundTrips)
{
    const RsaPrivateKey &key = testKey();
    auto decoded = RsaPublicKey::decode(key.pub.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->n, key.pub.n);
    EXPECT_EQ(decoded->e, key.pub.e);
}

TEST(Rsa, PrivateKeyEncodingRoundTrips)
{
    const RsaPrivateKey &key = testKey();
    auto decoded = RsaPrivateKey::decode(key.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->d, key.d);
    EXPECT_EQ(decoded->qInv, key.qInv);
}

TEST(Rsa, FingerprintIsStableAndKeySpecific)
{
    const RsaPrivateKey &key = testKey();
    const RsaPrivateKey &other = cachedKey("rsa-unit-test-2", 512);
    EXPECT_EQ(key.pub.fingerprint(), key.pub.fingerprint());
    EXPECT_NE(key.pub.fingerprint(), other.pub.fingerprint());
}

TEST(Rsa, CachedKeyIsMemoized)
{
    const RsaPrivateKey &a = cachedKey("memo", 512);
    const RsaPrivateKey &b = cachedKey("memo", 512);
    EXPECT_EQ(&a, &b);
}

TEST(Rsa, TpmSized2048BitKeyWorks)
{
    const RsaPrivateKey &key = cachedKey("tpm-sized", tpmKeyBits);
    EXPECT_EQ(key.pub.n.bitLength(), 2048u);
    const Bytes msg = asciiBytes("quote payload");
    EXPECT_TRUE(rsaVerifySha1(key.pub, msg, rsaSignSha1(key, msg)));
}

} // namespace
} // namespace mintcb::crypto
