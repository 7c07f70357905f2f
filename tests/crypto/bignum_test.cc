/**
 * @file
 * BigNum unit and property tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "crypto/bignum.hh"
#include "crypto/prime.hh"

namespace mintcb::crypto
{
namespace
{

TEST(BigNum, ZeroProperties)
{
    const BigNum z;
    EXPECT_TRUE(z.isZero());
    EXPECT_FALSE(z.isOdd());
    EXPECT_EQ(z.bitLength(), 0u);
    EXPECT_EQ(z.toHexString(), "0");
    EXPECT_EQ(z.toBytesBE(), Bytes{0x00});
}

TEST(BigNum, FromU64)
{
    const BigNum n(0x1234);
    EXPECT_EQ(n.toU64(), 0x1234u);
    EXPECT_EQ(n.bitLength(), 13u);
    EXPECT_EQ(n.toHexString(), "1234");
}

TEST(BigNum, BytesRoundTrip)
{
    const Bytes raw = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                       0x09, 0x0a};
    const BigNum n = BigNum::fromBytesBE(raw);
    EXPECT_EQ(n.toBytesBE(10), raw);
    EXPECT_EQ(n.toHexString(), "102030405060708090a");
}

TEST(BigNum, LeadingZeroBytesAreTrimmed)
{
    const BigNum a = BigNum::fromBytesBE({0x00, 0x00, 0x12});
    const BigNum b = BigNum::fromBytesBE({0x12});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.limbCount(), 1u);
}

TEST(BigNum, PaddedEncoding)
{
    const BigNum n(0xff);
    const Bytes padded = n.toBytesBE(4);
    EXPECT_EQ(padded, (Bytes{0x00, 0x00, 0x00, 0xff}));
}

TEST(BigNum, CompareAcrossLimbBoundaries)
{
    const BigNum small = BigNum::fromHexString("ffffffffffffffff");
    const BigNum big = BigNum::fromHexString("10000000000000000");
    EXPECT_LT(small, big);
    EXPECT_GT(big, small);
    EXPECT_EQ(small.limbCount(), 1u);
    EXPECT_EQ(big.limbCount(), 2u);
}

TEST(BigNum, AddWithCarryChain)
{
    const BigNum a = BigNum::fromHexString("ffffffffffffffffffffffffffffffff");
    const BigNum one(1);
    EXPECT_EQ(a + one,
              BigNum::fromHexString("100000000000000000000000000000000"));
}

TEST(BigNum, SubWithBorrowChain)
{
    const BigNum a =
        BigNum::fromHexString("100000000000000000000000000000000");
    EXPECT_EQ(a - BigNum(1),
              BigNum::fromHexString("ffffffffffffffffffffffffffffffff"));
}

TEST(BigNum, MulKnownAnswer)
{
    const BigNum a = BigNum::fromHexString("fedcba9876543210");
    const BigNum b = BigNum::fromHexString("123456789abcdef");
    EXPECT_EQ((a * b).toHexString(), "121fa00ad77d7422236d88fe5618cf0");
}

TEST(BigNum, MulByZeroAndOne)
{
    const BigNum a = BigNum::fromHexString("deadbeefdeadbeefdeadbeef");
    EXPECT_TRUE((a * BigNum()).isZero());
    EXPECT_EQ(a * BigNum(1), a);
}

TEST(BigNum, DivModSingleLimb)
{
    const BigNum a = BigNum::fromHexString("123456789abcdef0123456789");
    const auto dm = a.divmod(BigNum(1000));
    EXPECT_EQ(dm.quotient * BigNum(1000) + dm.remainder, a);
    EXPECT_LT(dm.remainder, BigNum(1000));
}

TEST(BigNum, DivModMultiLimbKnownAnswer)
{
    const BigNum a = BigNum::fromHexString(
        "7fffffffffffffffffffffffffffffffffffffffffffffff");
    const BigNum b = BigNum::fromHexString("ffffffffffffffff0000000000000001");
    const auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
}

TEST(BigNum, DivisorLargerThanDividend)
{
    const BigNum a(5);
    const BigNum b = BigNum::fromHexString("ffffffffffffffffff");
    const auto dm = a.divmod(b);
    EXPECT_TRUE(dm.quotient.isZero());
    EXPECT_EQ(dm.remainder, a);
}

TEST(BigNum, Shifts)
{
    const BigNum a = BigNum::fromHexString("1234");
    EXPECT_EQ(a.shiftLeft(4).toHexString(), "12340");
    EXPECT_EQ(a.shiftLeft(64).toHexString(), "12340000000000000000");
    EXPECT_EQ(a.shiftRight(4).toHexString(), "123");
    EXPECT_EQ(a.shiftRight(100).toHexString(), "0");
    EXPECT_EQ(a.shiftLeft(0), a);
}

TEST(BigNum, ShiftRoundTrip)
{
    const BigNum a = BigNum::fromHexString("deadbeefcafebabe12345678");
    for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u})
        EXPECT_EQ(a.shiftLeft(s).shiftRight(s), a) << "shift=" << s;
}

TEST(BigNum, ModU64)
{
    const BigNum a = BigNum::fromHexString("123456789abcdef0fedcba987654321");
    const std::uint64_t m = 1000000007ull;
    EXPECT_EQ(BigNum(a.modU64(m)), a % BigNum(m));
}

TEST(BigNum, ModExpSmallKnownAnswers)
{
    EXPECT_EQ(BigNum(4).modExp(BigNum(13), BigNum(497)), BigNum(445));
    EXPECT_EQ(BigNum(2).modExp(BigNum(10), BigNum(1000)), BigNum(24));
    EXPECT_EQ(BigNum(7).modExp(BigNum(0), BigNum(13)), BigNum(1));
    EXPECT_EQ(BigNum(0).modExp(BigNum(5), BigNum(13)), BigNum());
}

TEST(BigNum, ModExpFermat)
{
    // a^(p-1) = 1 mod p for prime p not dividing a.
    const BigNum p = BigNum::fromHexString("ffffffffffffffc5"); // prime
    for (std::uint64_t a : {2ull, 3ull, 65537ull}) {
        EXPECT_EQ(BigNum(a).modExp(p.subU64(1), p), BigNum(1))
            << "a=" << a;
    }
}

TEST(BigNum, ModExpEvenModulus)
{
    // Exercises the non-Montgomery fallback path.
    EXPECT_EQ(BigNum(3).modExp(BigNum(4), BigNum(100)), BigNum(81));
    EXPECT_EQ(BigNum(7).modExp(BigNum(3), BigNum(256)), BigNum(343 % 256));
}

TEST(BigNum, Gcd)
{
    EXPECT_EQ(BigNum::gcd(BigNum(48), BigNum(36)), BigNum(12));
    EXPECT_EQ(BigNum::gcd(BigNum(17), BigNum(13)), BigNum(1));
    EXPECT_EQ(BigNum::gcd(BigNum(0), BigNum(5)), BigNum(5));
    EXPECT_EQ(BigNum::gcd(BigNum(5), BigNum(0)), BigNum(5));
}

TEST(BigNum, ModInverseKnownAnswer)
{
    // 3 * 4 = 12 = 1 mod 11.
    EXPECT_EQ(BigNum(3).modInverse(BigNum(11)), BigNum(4));
    // No inverse when gcd != 1.
    EXPECT_TRUE(BigNum(6).modInverse(BigNum(9)).isZero());
}

TEST(BigNum, ModInverseLarge)
{
    const BigNum m = BigNum::fromHexString(
        "ffffffffffffffffffffffffffffff61"); // odd modulus
    const BigNum a = BigNum::fromHexString("123456789abcdef");
    const BigNum inv = a.modInverse(m);
    ASSERT_FALSE(inv.isZero());
    EXPECT_EQ((a * inv) % m, BigNum(1));
}

// ---- Property tests over random operands --------------------------------

class BigNumProperty : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 3};
};

TEST_P(BigNumProperty, AdditionCommutesAndSubtractionInverts)
{
    const BigNum a = randomBits(rng_, 64 + GetParam() * 13 % 512);
    const BigNum b = randomBits(rng_, 32 + GetParam() * 29 % 512);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
}

TEST_P(BigNumProperty, MultiplicationDistributes)
{
    const BigNum a = randomBits(rng_, 100);
    const BigNum b = randomBits(rng_, 180);
    const BigNum c = randomBits(rng_, 60);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
}

TEST_P(BigNumProperty, DivModReconstructs)
{
    const BigNum a = randomBits(rng_, 70 + (GetParam() * 37) % 700);
    const BigNum b = randomBits(rng_, 1 + (GetParam() * 53) % 300);
    if (b.isZero())
        return;
    const auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
}

/** base^exp mod m by division-based square-and-multiply: an oracle
 *  that shares no code with the Montgomery path. */
BigNum
naiveModExp(const BigNum &base, const BigNum &exp, const BigNum &m)
{
    BigNum result(1);
    BigNum b = base % m;
    for (std::size_t i = 0; i < exp.bitLength(); ++i) {
        if (exp.bit(i))
            result = (result * b) % m;
        b = (b * b) % m;
    }
    return result % m;
}

TEST_P(BigNumProperty, MontgomeryAgreesWithNaiveModExp)
{
    // Compare Montgomery modexp against an independent square-and-multiply
    // using division-based reduction.
    BigNum m = randomBits(rng_, 128);
    if (!m.isOdd())
        m = m.addU64(1);
    const BigNum base = randomBits(rng_, 100);
    const BigNum exp = randomBits(rng_, 24);
    EXPECT_EQ(base.modExp(exp, m), naiveModExp(base, exp, m));

    // Wide moduli: the CRT-half and RSA-2048 widths (16 and 32 limbs),
    // a 17-limb width, and for each limb-aligned width a modulus whose
    // top limb is all ones, so the final conditional subtraction runs.
    // Exponents of 160 bits take the windowed path, 17 bits the ladder.
    for (const std::size_t bits : {1024u, 2048u, 1025u}) {
        std::vector<BigNum> moduli{randomBits(rng_, bits)};
        if (bits % 64 == 0) {
            const BigNum low = randomBits(rng_, bits - 64);
            const BigNum top = BigNum(~std::uint64_t{0}).shiftLeft(bits - 64);
            moduli.push_back(top + low);
        }
        for (BigNum n : moduli) {
            if (!n.isOdd())
                n = n.addU64(1);
            ASSERT_EQ(n.bitLength(), bits);
            const BigNum bases[] = {
                BigNum(),          BigNum(1),
                n.subU64(1),       n,
                n.addU64(12345),   randomBelow(rng_, n),
                randomBits(rng_, 2 * bits),
            };
            for (const std::size_t expBits : {160u, 17u}) {
                const BigNum e = randomBits(rng_, expBits);
                for (const BigNum &a : bases) {
                    EXPECT_EQ(a.modExp(e, n), naiveModExp(a, e, n))
                        << bits << "-bit modulus " << n.toHexString()
                        << ", " << expBits << "-bit exponent, base "
                        << a.toHexString();
                }
            }
        }
    }
}

TEST_P(BigNumProperty, EncodingRoundTrips)
{
    const BigNum a = randomBits(rng_, 1 + (GetParam() * 97) % 1024);
    EXPECT_EQ(BigNum::fromBytesBE(a.toBytesBE()), a);
    EXPECT_EQ(BigNum::fromHexString(a.toHexString()), a);
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, BigNumProperty,
                         ::testing::Range(0, 24));

} // namespace
} // namespace mintcb::crypto
