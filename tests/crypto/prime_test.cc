/**
 * @file
 * Prime generation tests.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "crypto/prime.hh"
#include "crypto/rsa.hh"

namespace mintcb::crypto
{
namespace
{

TEST(Prime, SmallKnownPrimes)
{
    Rng rng(1);
    for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 997ull, 65537ull,
                            4294967311ull}) {
        EXPECT_TRUE(isProbablePrime(BigNum(p), rng)) << p;
    }
}

TEST(Prime, SmallKnownComposites)
{
    Rng rng(2);
    for (std::uint64_t c : {0ull, 1ull, 4ull, 9ull, 561ull /* Carmichael */,
                            1729ull, 65539ull * 3ull, 1000001ull}) {
        EXPECT_FALSE(isProbablePrime(BigNum(c), rng)) << c;
    }
}

TEST(Prime, CarmichaelNumbersRejected)
{
    // Carmichael numbers fool Fermat but not Miller-Rabin.
    Rng rng(3);
    for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 2821ull,
                            6601ull, 8911ull, 41041ull, 825265ull}) {
        EXPECT_FALSE(isProbablePrime(BigNum(c), rng)) << c;
    }
}

TEST(Prime, ProductOfTwoPrimesRejected)
{
    Rng rng(4);
    const BigNum p = generatePrime(rng, 64).value();
    const BigNum q = generatePrime(rng, 64).value();
    EXPECT_FALSE(isProbablePrime(p * q, rng));
}

TEST(Prime, RandomBitsHasExactWidth)
{
    Rng rng(5);
    for (std::size_t bits : {8u, 64u, 65u, 127u, 512u}) {
        const BigNum n = randomBits(rng, bits);
        EXPECT_EQ(n.bitLength(), bits);
    }
}

TEST(Prime, RandomBelowIsInRange)
{
    Rng rng(6);
    const BigNum bound = BigNum::fromHexString("10000000001");
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(randomBelow(rng, bound), bound);
}

TEST(Prime, GeneratedPrimeHasRequestedWidthAndIsOdd)
{
    Rng rng(7);
    for (std::size_t bits : {64u, 128u, 256u}) {
        const BigNum p = generatePrime(rng, bits).value();
        EXPECT_EQ(p.bitLength(), bits);
        EXPECT_TRUE(p.isOdd());
        EXPECT_TRUE(isProbablePrime(p, rng));
    }
}

TEST(Prime, GenerationIsDeterministicPerSeed)
{
    Rng a(42), b(42);
    EXPECT_EQ(generatePrime(a, 96).value(), generatePrime(b, 96).value());
}

TEST(Prime, BoundedSearchKeepsTheKnownAnswers)
{
    // Recorded from the unbounded search loops: bounding them must not
    // move a byte of any generated prime or key.
    Rng a(42);
    EXPECT_EQ(toHex(generatePrime(a, 96).value().toBytesBE()),
              "fe64976e726ee9c23dbc5f77");
    Rng b(0x11);
    EXPECT_EQ(toHex(rsaGenerate(b, 256).value().pub.n.toBytesBE()),
              "89cbbad7378dffb408cef26f1d538b26"
              "a0ab32ce05d8debb0087697c16271327");
}

TEST(Prime, FewerThanTwoBitsIsATypedRefusal)
{
    // randomBits(rng, 1) is always 1, which is not prime: without the
    // refusal this loops forever, so it must end even with NDEBUG.
    Rng rng(8);
    for (std::size_t bits : {0u, 1u}) {
        auto p = generatePrime(rng, bits);
        ASSERT_FALSE(p.ok()) << bits;
        EXPECT_EQ(p.error().code, Errc::invalidArgument) << bits;
    }
    auto two = generatePrime(rng, 2);
    ASSERT_TRUE(two.ok());
    EXPECT_EQ(*two, BigNum(3));
}

} // namespace
} // namespace mintcb::crypto
