/**
 * @file
 * RSA-CRT fast-path tests: the CRT private op must be observably
 * indistinguishable from the plain full-width modexp fallback --
 * byte-identical signatures, identical decrypts, identical raw private
 * ops over randomized keys and messages -- and keys without CRT hints
 * (legacy three-field wire entries) must keep working.
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "common/rng.hh"
#include "crypto/keycache.hh"
#include "crypto/rsa.hh"

namespace mintcb::crypto
{
namespace
{

/** Copy of @p key with every CRT hint removed, forcing rsaPrivateOp
 *  onto the plain m = c^d mod n path. */
RsaPrivateKey
stripCrt(const RsaPrivateKey &key)
{
    RsaPrivateKey out = key;
    out.p = BigNum();
    out.q = BigNum();
    out.dP = BigNum();
    out.dQ = BigNum();
    out.qInv = BigNum();
    return out;
}

TEST(RsaCrt, PrivateOpAgreesWithPlainOverRandomMessages)
{
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    ASSERT_TRUE(crt.hasCrt());
    const RsaPrivateKey plain = stripCrt(crt);
    ASSERT_FALSE(plain.hasCrt());

    Rng rng(0xc47);
    for (int i = 0; i < 16; ++i) {
        // 32 random bytes are always below the 64-byte modulus.
        const BigNum m = BigNum::fromBytesBE(rng.bytes(32));
        EXPECT_EQ(rsaPrivateOp(crt, m), rsaPrivateOp(plain, m))
            << "message " << i;
    }
}

TEST(RsaCrt, RandomizedKeysAgree)
{
    // Fresh keys (not the cache's fixed ones) across several prime
    // pairs: CRT recombination must agree with the fallback for every
    // factorization, not just a lucky one.
    for (std::uint64_t seed : {0x11ull, 0x22ull, 0x33ull}) {
        Rng rng(seed);
        const RsaPrivateKey crt = rsaGenerate(rng, 256).value();
        ASSERT_TRUE(crt.hasCrt());
        const RsaPrivateKey plain = stripCrt(crt);
        for (int i = 0; i < 4; ++i) {
            const BigNum m = BigNum::fromBytesBE(rng.bytes(16));
            EXPECT_EQ(rsaPrivateOp(crt, m), rsaPrivateOp(plain, m))
                << "seed " << seed << " message " << i;
        }
    }
}

TEST(RsaCrt, SignaturesByteIdenticalAcrossKeyForms)
{
    // PKCS#1 v1.5 signing is deterministic, so the fast path must
    // produce the *same bytes*, not merely a signature that verifies.
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    const RsaPrivateKey plain = stripCrt(crt);
    const Bytes msg = asciiBytes("quote: PCR17 composite");
    EXPECT_EQ(rsaSignSha1(crt, msg), rsaSignSha1(plain, msg));
}

TEST(RsaCrt, Pkcs1InteropBothDirections)
{
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    const RsaPrivateKey plain = stripCrt(crt);
    const Bytes msg = asciiBytes("interop");

    // Signed by either key form, verified under the shared public key.
    EXPECT_TRUE(rsaVerifySha1(crt.pub, msg, rsaSignSha1(crt, msg)));
    EXPECT_TRUE(rsaVerifySha1(plain.pub, msg, rsaSignSha1(plain, msg)));

    // Encrypted once, decrypted by both key forms.
    Rng rng(0xdec);
    const Bytes secret = asciiBytes("sealed secret");
    auto ciphertext = rsaEncrypt(crt.pub, rng, secret);
    ASSERT_TRUE(ciphertext.ok());
    auto via_crt = rsaDecrypt(crt, *ciphertext);
    auto via_plain = rsaDecrypt(plain, *ciphertext);
    ASSERT_TRUE(via_crt.ok());
    ASSERT_TRUE(via_plain.ok());
    EXPECT_EQ(*via_crt, secret);
    EXPECT_EQ(*via_plain, secret);
}

TEST(RsaCrt, LegacyThreeFieldWireDecodeStillWorks)
{
    // Entries written before the CRT fields existed carry only
    // (n, e, d); decode must accept them and the key must sign through
    // the fallback path.
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    ByteWriter w;
    w.lengthPrefixed(full.pub.n.toBytesBE());
    w.lengthPrefixed(full.pub.e.toBytesBE());
    w.lengthPrefixed(full.d.toBytesBE());
    auto decoded = RsaPrivateKey::decode(w.take());
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->hasCrt());

    const Bytes msg = asciiBytes("legacy");
    EXPECT_EQ(rsaSignSha1(*decoded, msg), rsaSignSha1(full, msg));

    // Without the factorization, augmentation must stay a no-op
    // (never a prime search) and the key must keep working.
    decoded->augmentCrt();
    EXPECT_FALSE(decoded->hasCrt());
    EXPECT_TRUE(rsaVerifySha1(full.pub, msg, rsaSignSha1(*decoded, msg)));
}

TEST(RsaCrt, AugmentRebuildsExactParameters)
{
    // augmentCrt from (d, p, q) must reproduce the generation-time
    // CRT parameters exactly.
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    RsaPrivateKey partial = full;
    partial.dP = BigNum();
    partial.dQ = BigNum();
    partial.qInv = BigNum();
    ASSERT_FALSE(partial.hasCrt());
    partial.augmentCrt();
    ASSERT_TRUE(partial.hasCrt());
    EXPECT_EQ(partial.dP, full.dP);
    EXPECT_EQ(partial.dQ, full.dQ);
    EXPECT_EQ(partial.qInv, full.qInv);
}

TEST(RsaCrt, EncodeDecodeRoundTripKeepsCrtFields)
{
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    auto decoded = RsaPrivateKey::decode(full.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->hasCrt());
    EXPECT_EQ(decoded->p, full.p);
    EXPECT_EQ(decoded->q, full.q);
    EXPECT_EQ(decoded->dP, full.dP);
    EXPECT_EQ(decoded->dQ, full.dQ);
    EXPECT_EQ(decoded->qInv, full.qInv);
}

} // namespace
} // namespace mintcb::crypto
