/**
 * @file
 * Key-cache tests (determinism and the disk layer's fallback).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/keycache.hh"
#include "crypto/prime.hh"
#include "crypto/sha256.hh"

namespace mintcb::crypto
{
namespace
{

TEST(KeyCache, DistinctLabelsDistinctKeys)
{
    const RsaPrivateKey &a = cachedKey("kc-label-a", 512);
    const RsaPrivateKey &b = cachedKey("kc-label-b", 512);
    EXPECT_NE(a.pub.n, b.pub.n);
}

TEST(KeyCache, DistinctSizesDistinctKeys)
{
    const RsaPrivateKey &a = cachedKey("kc-sized", 512);
    const RsaPrivateKey &b = cachedKey("kc-sized", 768);
    EXPECT_EQ(a.pub.n.bitLength(), 512u);
    EXPECT_EQ(b.pub.n.bitLength(), 768u);
}

TEST(KeyCache, ReturnedKeysAreFunctional)
{
    const RsaPrivateKey &key = cachedKey("kc-functional", 512);
    const Bytes msg = {'k', 'c'};
    EXPECT_TRUE(rsaVerifySha1(key.pub, msg, rsaSignSha1(key, msg)));
}

TEST(KeyCache, InMemoryMemoizationReturnsSameObject)
{
    EXPECT_EQ(&cachedKey("kc-memo", 512), &cachedKey("kc-memo", 512));
}

TEST(KeyCache, KeysAreDeterministicAcrossTheDiskLayer)
{
    // Whether this process generated the key or loaded it from the disk
    // cache, the value is a pure function of (label, bits): regenerate
    // from the same derivation and compare.
    const RsaPrivateKey &cached = cachedKey("kc-deterministic", 512);
    // Derive the same seed the cache uses (mirrors keycache.cc).
    const Bytes digest =
        Sha256::digestBytes(Bytes{'k', 'c', '-', 'd', 'e', 't', 'e',
                                  'r', 'm', 'i', 'n', 'i', 's', 't',
                                  'i', 'c'});
    std::uint64_t seed = 512;
    for (int i = 0; i < 8; ++i)
        seed = (seed << 8) ^ digest[i] ^ (seed >> 56);
    Rng rng(seed);
    const RsaPrivateKey fresh = rsaGenerate(rng, 512).value();
    EXPECT_EQ(cached.pub.n, fresh.pub.n);
    EXPECT_EQ(cached.d, fresh.d);
}

TEST(KeyCache, ServedKeysCarryCrtParameters)
{
    // Every key the cache hands out must take rsaPrivateOp's fast
    // path, whether it was generated this process or loaded from disk.
    EXPECT_TRUE(cachedKey("kc-crt-served", 512).hasCrt());
}

TEST(KeyCache, MemoizedHitNeverRegeneratesPrimes)
{
    (void)cachedKey("kc-hit-count", 512); // generate or load once
    const std::uint64_t before = primeGenerationCount();
    (void)cachedKey("kc-hit-count", 512);
    EXPECT_EQ(primeGenerationCount(), before);
}

/** Mirror of keycache.cc's on-disk path derivation. */
std::string
diskPathFor(const std::string &label, std::size_t bits)
{
    const char *tmp = std::getenv("TMPDIR");
    const std::string dir = tmp ? tmp : "/tmp";
    const Bytes digest =
        Sha256::digestBytes(asciiBytes(label + ":" +
                                       std::to_string(bits)));
    return dir + "/mintcb-key-" +
           toHex(Bytes(digest.begin(), digest.begin() + 16)) + ".bin";
}

TEST(KeyCache, LegacyDiskEntryAugmentedWithoutPrimeSearch)
{
    // Plant a pre-CRT cache file (eight-field layout with the CRT
    // values zeroed, as augment-era code would find after a partial
    // write of old software) under a label this process has not
    // touched, then ask the cache for it: the key must come back
    // CRT-complete, the disk copy must be upgraded, and no prime
    // generation may run -- a cache hit never pays for a prime search.
    Rng rng(0x1eac);
    RsaPrivateKey planted = rsaGenerate(rng, 512).value();
    RsaPrivateKey legacy = planted;
    legacy.dP = BigNum();
    legacy.dQ = BigNum();
    legacy.qInv = BigNum();

    const std::string label =
        "kc-legacy-" + std::to_string(::getpid());
    const std::string path = diskPathFor(label, 512);
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good());
        const Bytes wire = legacy.encode();
        out.write(reinterpret_cast<const char *>(wire.data()),
                  static_cast<std::streamsize>(wire.size()));
    }

    const std::uint64_t before = primeGenerationCount();
    const RsaPrivateKey &served = cachedKey(label, 512);
    EXPECT_EQ(primeGenerationCount(), before)
        << "cache hit re-ran prime generation";
    EXPECT_EQ(served.pub.n, planted.pub.n);
    EXPECT_TRUE(served.hasCrt());
    EXPECT_EQ(served.dP, planted.dP);
    EXPECT_EQ(served.dQ, planted.dQ);
    EXPECT_EQ(served.qInv, planted.qInv);

    // The upgraded form was re-stored for the next process.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const Bytes wire((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto reloaded = RsaPrivateKey::decode(wire);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_TRUE(reloaded->hasCrt());
    std::remove(path.c_str());
}

} // namespace
} // namespace mintcb::crypto
