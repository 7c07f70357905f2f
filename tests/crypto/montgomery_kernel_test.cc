/**
 * @file
 * The two Montgomery kernel bodies against each other at 16 and 32
 * limbs: seeded random (n, a, b) triples through both, edge operands
 * and aliased operands through each against a BigNum reference, one
 * full 1024-bit exponentiation through each body alone, and the
 * once-per-process dispatch. Only the ADX half skips, and only on a
 * CPU without ADX/BMI2.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "crypto/bignum.hh"
#include "crypto/montgomery.hh"

namespace mintcb::crypto
{
namespace
{

using u64 = std::uint64_t;

template <std::size_t K>
using Limbs = std::array<u64, K>;

/** The kernel body a test drives, bypassing the dispatch. */
enum class Body
{
    portable,
    adx,
};

template <std::size_t K>
void
mulWith(Body body, const MontKernel<K> &mont, u64 *out, const u64 *a,
        const u64 *b)
{
#if MINTCB_MONT_ADX
    if (body == Body::adx)
        return mont.mulAdx(out, a, b);
#endif
    (void)body;
    mont.mulPortable(out, a, b);
}

template <std::size_t K>
void
sqrWith(Body body, const MontKernel<K> &mont, u64 *out, const u64 *a)
{
#if MINTCB_MONT_ADX
    if (body == Body::adx)
        return mont.sqrAdx(out, a);
#endif
    (void)body;
    mont.sqrPortable(out, a);
}

template <std::size_t K>
Limbs<K>
toLimbs(const BigNum &v)
{
    const Bytes be = v.toBytesBE(8 * K);
    Limbs<K> out{};
    for (std::size_t i = 0; i < be.size(); ++i)
        out[K - 1 - i / 8] = (out[K - 1 - i / 8] << 8) | be[i];
    return out;
}

template <std::size_t K>
BigNum
toBigNum(const Limbs<K> &limbs)
{
    Bytes be(8 * K);
    for (std::size_t i = 0; i < be.size(); ++i)
        be[i] = static_cast<std::uint8_t>(limbs[K - 1 - i / 8] >>
                                          (56 - 8 * (i % 8)));
    return BigNum::fromBytesBE(be);
}

/** A random odd K-limb modulus with a nonzero top limb. */
template <std::size_t K>
Limbs<K>
randomModulus(Rng &rng)
{
    Limbs<K> n;
    for (u64 &limb : n)
        limb = rng.next();
    n[0] |= 1;
    n[K - 1] |= u64{1} << rng.nextBelow(64);
    return n;
}

/** A random residue below @p n. */
template <std::size_t K>
Limbs<K>
randomBelow(Rng &rng, const BigNum &n)
{
    Limbs<K> x;
    for (u64 &limb : x)
        limb = rng.next();
    return toLimbs<K>(toBigNum(x) % n);
}

/** R = 2^(64K). */
template <std::size_t K>
BigNum
montR()
{
    return BigNum(1).shiftLeft(64 * K);
}

/** Whether the CIOS sum t = (a * b + m * n) / R reached n, so the final
 *  subtraction fired, given the kernel's result r = a * b * R^-1 mod n.
 *  t is r or r + n; with q = (r * R - a * b) / n, t = r exactly when
 *  q >= 0 (then m = q < R), so it fired exactly when r * R < a * b. */
template <std::size_t K>
bool
subtractionFired(const Limbs<K> &r, const Limbs<K> &a, const Limbs<K> &b)
{
    return toBigNum(r).shiftLeft(64 * K) < toBigNum(a) * toBigNum(b);
}

/** How many products' final subtraction fired, and how many not. */
struct SubtractionTally
{
    int fired = 0;
    int unfired = 0;
};

/** Both products of @p body against a * b * R^-1 mod n, for every pair
 *  of edge operands (0, 1, n - 1, R mod n and a random residue). */
template <std::size_t K>
void
expectEdgeOperands(Body body, const Limbs<K> &n, Rng &rng,
                   SubtractionTally &tally)
{
    const BigNum nBig = toBigNum(n);
    const BigNum rInv = (montR<K>() % nBig).modInverse(nBig);
    const MontKernel<K> mont(n.data(), K);
    const std::vector<Limbs<K>> operands{
        toLimbs<K>(BigNum()),
        toLimbs<K>(BigNum(1)),
        toLimbs<K>(nBig - BigNum(1)),
        toLimbs<K>(montR<K>() % nBig),
        randomBelow<K>(rng, nBig),
    };
    for (const Limbs<K> &a : operands) {
        for (const Limbs<K> &b : operands) {
            const Limbs<K> want =
                toLimbs<K>(toBigNum(a) * toBigNum(b) * rInv % nBig);
            Limbs<K> got;
            mulWith<K>(body, mont, got.data(), a.data(), b.data());
            EXPECT_EQ(got, want) << K << " limbs, mul";
            (subtractionFired<K>(got, a, b) ? tally.fired
                                            : tally.unfired)++;
        }
        const Limbs<K> want =
            toLimbs<K>(toBigNum(a) * toBigNum(a) * rInv % nBig);
        Limbs<K> got;
        sqrWith<K>(body, mont, got.data(), a.data());
        EXPECT_EQ(got, want) << K << " limbs, sqr";
    }
}

template <std::size_t K>
void
expectEdgeOperandsAtWidth(Body body)
{
    Rng rng(16 * K);
    const Limbs<K> random = randomModulus<K>(rng);
    Limbs<K> topAllOnes = randomModulus<K>(rng);
    topAllOnes[K - 1] = ~u64{0};
    SubtractionTally tally;
    expectEdgeOperands<K>(body, random, rng, tally);
    expectEdgeOperands<K>(body, topAllOnes, rng, tally);
    EXPECT_GT(tally.fired, 0) << K << " limbs";
    EXPECT_GT(tally.unfired, 0) << K << " limbs";
}

/** out == a, out == b, out == a == b, and a == b against the unaliased
 *  product of the same body. */
template <std::size_t K>
void
expectAliasing(Body body)
{
    Rng rng(32 * K);
    const Limbs<K> n = randomModulus<K>(rng);
    const BigNum nBig = toBigNum(n);
    const MontKernel<K> mont(n.data(), K);
    for (int i = 0; i < 50; ++i) {
        const Limbs<K> a = randomBelow<K>(rng, nBig);
        const Limbs<K> b = randomBelow<K>(rng, nBig);
        Limbs<K> ab;
        Limbs<K> aa;
        mulWith<K>(body, mont, ab.data(), a.data(), b.data());
        mulWith<K>(body, mont, aa.data(), a.data(), a.data());

        Limbs<K> x = a;
        mulWith<K>(body, mont, x.data(), x.data(), b.data());
        EXPECT_EQ(x, ab) << "out == a";
        x = b;
        mulWith<K>(body, mont, x.data(), a.data(), x.data());
        EXPECT_EQ(x, ab) << "out == b";
        x = a;
        mulWith<K>(body, mont, x.data(), x.data(), x.data());
        EXPECT_EQ(x, aa) << "out == a == b";
        x = a;
        sqrWith<K>(body, mont, x.data(), x.data());
        EXPECT_EQ(x, aa) << "sqr, out == a";
        Limbs<K> y;
        sqrWith<K>(body, mont, y.data(), a.data());
        EXPECT_EQ(y, aa) << "sqr(a) == mul(a, a)";
    }
}

/** base^exp mod n by a square-and-multiply ladder on @p body alone. */
template <std::size_t K>
BigNum
modExpThrough(Body body, const BigNum &base, const BigNum &exp,
              const BigNum &n)
{
    const Limbs<K> nLimbs = toLimbs<K>(n);
    const MontKernel<K> mont(nLimbs.data(), K);
    const BigNum rModN = montR<K>() % n;
    const Limbs<K> r2 = toLimbs<K>(rModN * rModN % n);
    const Limbs<K> raw = toLimbs<K>(base);
    Limbs<K> x;
    mulWith<K>(body, mont, x.data(), raw.data(), r2.data());
    Limbs<K> acc = toLimbs<K>(rModN);
    for (std::size_t i = exp.bitLength(); i-- > 0;) {
        sqrWith<K>(body, mont, acc.data(), acc.data());
        if (exp.bit(i))
            mulWith<K>(body, mont, acc.data(), acc.data(), x.data());
    }
    const Limbs<K> one = toLimbs<K>(BigNum(1));
    mulWith<K>(body, mont, acc.data(), acc.data(), one.data());
    return toBigNum(acc);
}

/** A 1024-bit exponentiation through @p body against square-and-
 *  multiply with division, which shares no code with either body. */
void
expectExponentiation1024(Body body)
{
    Rng rng(1024);
    const BigNum n = toBigNum(randomModulus<16>(rng));
    const BigNum base = toBigNum(randomBelow<16>(rng, n));
    const BigNum exp = toBigNum(randomModulus<16>(rng));
    BigNum want(1);
    BigNum square = base;
    for (std::size_t i = 0; i < exp.bitLength(); ++i) {
        if (exp.bit(i))
            want = want * square % n;
        square = square * square % n;
    }
    EXPECT_EQ(modExpThrough<16>(body, base, exp, n), want);
}

TEST(MontKernel, PortableBodyMatchesReferenceOnEdgeOperands)
{
    expectEdgeOperandsAtWidth<16>(Body::portable);
    expectEdgeOperandsAtWidth<32>(Body::portable);
}

TEST(MontKernel, PortableBodyHandlesAliasedOperands)
{
    expectAliasing<16>(Body::portable);
    expectAliasing<32>(Body::portable);
}

TEST(MontKernel, PortableBodyExponentiates1024Bits)
{
    expectExponentiation1024(Body::portable);
}

TEST(MontKernel, AdxBodyMatchesReferenceOnEdgeOperands)
{
    if (!montAdxAvailable())
        GTEST_SKIP() << "CPUID reports no ADX/BMI2";
    expectEdgeOperandsAtWidth<16>(Body::adx);
    expectEdgeOperandsAtWidth<32>(Body::adx);
}

TEST(MontKernel, AdxBodyHandlesAliasedOperands)
{
    if (!montAdxAvailable())
        GTEST_SKIP() << "CPUID reports no ADX/BMI2";
    expectAliasing<16>(Body::adx);
    expectAliasing<32>(Body::adx);
}

TEST(MontKernel, AdxBodyExponentiates1024Bits)
{
    if (!montAdxAvailable())
        GTEST_SKIP() << "CPUID reports no ADX/BMI2";
    expectExponentiation1024(Body::adx);
}

/** 10 000 seeded triples through both bodies, mul and sqr; both final
 *  subtraction outcomes must occur among them. */
template <std::size_t K>
void
expectBodiesAgreeOnRandomTriples()
{
    Rng rng(K);
    SubtractionTally tally;
    for (int i = 0; i < 10000; ++i) {
        const Limbs<K> n = randomModulus<K>(rng);
        const BigNum nBig = toBigNum(n);
        const Limbs<K> a = randomBelow<K>(rng, nBig);
        const Limbs<K> b = randomBelow<K>(rng, nBig);
        const MontKernel<K> mont(n.data(), K);
        Limbs<K> portable;
        Limbs<K> adx;
        mulWith<K>(Body::portable, mont, portable.data(), a.data(),
                   b.data());
        mulWith<K>(Body::adx, mont, adx.data(), a.data(), b.data());
        EXPECT_EQ(adx, portable) << K << " limbs, mul, triple " << i;
        (subtractionFired<K>(portable, a, b) ? tally.fired
                                              : tally.unfired)++;
        mulWith<K>(Body::portable, mont, portable.data(), a.data(),
                   a.data());
        sqrWith<K>(Body::adx, mont, adx.data(), a.data());
        EXPECT_EQ(adx, portable) << K << " limbs, sqr, triple " << i;
        if (::testing::Test::HasFailure())
            break; // one failing triple says enough
    }
    EXPECT_GT(tally.fired, 0) << K << " limbs";
    EXPECT_GT(tally.unfired, 0) << K << " limbs";
}

TEST(MontKernel, AdxAgreesWithPortableOnRandomTriples)
{
    if (!montAdxAvailable())
        GTEST_SKIP() << "CPUID reports no ADX/BMI2";
    expectBodiesAgreeOnRandomTriples<16>();
    expectBodiesAgreeOnRandomTriples<32>();
}

/** mul and sqr count one product per call on either body and match
 *  the portable body. */
template <std::size_t K>
void
expectDispatchCountsAndMatches()
{
    Rng rng(29 + K);
    const Limbs<K> n = randomModulus<K>(rng);
    const BigNum nBig = toBigNum(n);
    const Limbs<K> a = randomBelow<K>(rng, nBig);
    const Limbs<K> b = randomBelow<K>(rng, nBig);
    const MontKernel<K> mont(n.data(), K);
    Limbs<K> dispatched;
    Limbs<K> portable;

    const MontCounts before = montCounts();
    mont.mul(dispatched.data(), a.data(), b.data());
    EXPECT_EQ(montCounts().mul - before.mul, 1u);
    EXPECT_EQ(montCounts().sqr - before.sqr, 0u);
    mont.mulPortable(portable.data(), a.data(), b.data());
    EXPECT_EQ(dispatched, portable) << K << " limbs, mul";

    mont.sqr(dispatched.data(), a.data());
    EXPECT_EQ(montCounts().mul - before.mul, 1u);
    EXPECT_EQ(montCounts().sqr - before.sqr, 1u);
    mont.sqrPortable(portable.data(), a.data());
    EXPECT_EQ(dispatched, portable) << K << " limbs, sqr";
}

/** MontKernel<16> and <32> run the ADX body exactly when CPUID offers
 *  it; the run-time width never does. */
TEST(MontKernel, DispatchFollowsCpuid)
{
    EXPECT_EQ(montUsesAdx(), montAdxAvailable());
    static_assert(!MontKernel<0>::hasAdx);
#if MINTCB_MONT_ADX
    static_assert(MontKernel<16>::hasAdx && MontKernel<32>::hasAdx);
#else
    EXPECT_FALSE(montAdxAvailable());
#endif
    expectDispatchCountsAndMatches<16>();
    expectDispatchCountsAndMatches<32>();
}

} // namespace
} // namespace mintcb::crypto
