/**
 * @file
 * Montgomery arithmetic for BigNum::modExp: one portable kernel body
 * over a limb-count parameter, with a CIOS multiply and a dedicated
 * squaring, and for the 16- and 32-limb widths a second body built on
 * MULX/ADCX/ADOX (crypto/montgomery.cc).
 *
 * modExp instantiates the kernel at 16 limbs (the CRT halves of an
 * RSA-2048 key), at 32 limbs (the 2048-bit public operation) and once at
 * run-time width for every other odd modulus up to montMaxLimbs. At 16
 * and 32 limbs, mul and sqr run the ADX body when a once-per-process
 * CPUID probe finds ADX and BMI2, and the portable body otherwise; both
 * give the same result for every input. Operands and scratch live on
 * the stack; nothing here allocates.
 */

#ifndef MINTCB_CRYPTO_MONTGOMERY_HH
#define MINTCB_CRYPTO_MONTGOMERY_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__ELF__)
#define MINTCB_MONT_ADX 1
#endif

namespace mintcb::crypto
{

/** Whether this CPU has the ADX and BMI2 extensions the ADX body needs;
 *  always false where the ADX body is not built. */
bool montAdxAvailable();

/** Whether MontKernel<16> and <32> run the ADX body in this process. */
bool montUsesAdx();

#if MINTCB_MONT_ADX
extern "C" {
/** The ADX bodies for a 16- or 32-limb odd @p n, with n0inv = -n^-1 mod
 *  2^64: out = a * b * R^-1 mod n, and out = a^2 * R^-1 mod n. No
 *  counting; call them only when montAdxAvailable(). @p out may alias
 *  an input. */
void mintcbMontMulAdx16(std::uint64_t *out, const std::uint64_t *a,
                        const std::uint64_t *b, const std::uint64_t *n,
                        std::uint64_t n0inv);
void mintcbMontMulAdx32(std::uint64_t *out, const std::uint64_t *a,
                        const std::uint64_t *b, const std::uint64_t *n,
                        std::uint64_t n0inv);
void mintcbMontSqrAdx16(std::uint64_t *out, const std::uint64_t *a,
                        const std::uint64_t *n, std::uint64_t n0inv);
void mintcbMontSqrAdx32(std::uint64_t *out, const std::uint64_t *a,
                        const std::uint64_t *n, std::uint64_t n0inv);
}
#endif

/** Montgomery products made on this thread, by kernel. They are exact
 *  and host-independent, so a test gates an RSA operation's modular
 *  work with EXPECT_EQ; thread-local, like HashBlockCounts. */
struct MontCounts
{
    std::uint64_t mul = 0;
    std::uint64_t sqr = 0;
};

inline thread_local MontCounts threadMontCounts;

/** This thread's counts so far. */
inline MontCounts montCounts() { return threadMontCounts; }

/** Widest modulus the run-time-width kernel takes, in limbs (8192
 *  bits). modExp reduces a wider odd modulus by division instead. */
inline constexpr std::size_t montMaxLimbs = 128;

/** -n^{-1} mod 2^64 for odd @p n0 (Newton/Hensel lifting). */
constexpr std::uint64_t
montN0Inv(std::uint64_t n0)
{
    std::uint64_t inv = n0; // 3-bit correct seed for odd n0
    for (int i = 0; i < 6; ++i)
        inv *= 2 - n0 * inv; // doubles correct bits each step
    return ~inv + 1; // -inv mod 2^64
}

/**
 * Montgomery arithmetic modulo an odd k-limb @p n, R = 2^(64k). K > 0
 * fixes k at compile time, so every loop has a constant trip count;
 * K == 0 takes k at run time (k <= montMaxLimbs). Operands are k-limb
 * little-endian arrays below n, and @p out may alias an input.
 *
 * mul and sqr count the product and run the body this process picked;
 * the bodies themselves (mulPortable, sqrPortable and, at 16 and 32
 * limbs on x86-64, mulAdx and sqrAdx) count nothing.
 */
template <std::size_t K>
class MontKernel
{
    using u64 = std::uint64_t;
    using u128 = unsigned __int128;

  public:
    /** Limbs a caller's stack operand needs. */
    static constexpr std::size_t capacity = K ? K : montMaxLimbs;

#if MINTCB_MONT_ADX
    /** Whether this width has an ADX body. */
    static constexpr bool hasAdx = K == 16 || K == 32;
#else
    static constexpr bool hasAdx = false;
#endif

    MontKernel(const u64 *n, std::size_t k)
        : n_(n), k_(k), n0inv_(montN0Inv(n[0])),
          useAdx_(hasAdx && montUsesAdx())
    {
        assert(K ? k == K : k >= 1 && k <= montMaxLimbs);
    }

    /** out = a * b * R^-1 mod n, counted, on this process's body. */
    void
    mul(u64 *out, const u64 *a, const u64 *b) const
    {
        ++threadMontCounts.mul;
        if constexpr (hasAdx) {
            if (useAdx_)
                return mulAdx(out, a, b);
        }
        mulPortable(out, a, b);
    }

    /** out = a^2 * R^-1 mod n, counted, on this process's body. */
    void
    sqr(u64 *out, const u64 *a) const
    {
        ++threadMontCounts.sqr;
        if constexpr (hasAdx) {
            if (useAdx_)
                return sqrAdx(out, a);
        }
        sqrPortable(out, a);
    }

#if MINTCB_MONT_ADX
    /** The ADX multiply: CIOS rows on MULX, with the low halves carried
     *  on ADCX and the high halves on ADOX, and a branch-free final
     *  subtraction. */
    void
    mulAdx(u64 *out, const u64 *a, const u64 *b) const
        requires hasAdx
    {
        if constexpr (K == 16)
            mintcbMontMulAdx16(out, a, b, n_, n0inv_);
        else
            mintcbMontMulAdx32(out, a, b, n_, n0inv_);
    }

    /** The ADX squaring: the products a[i] * a[j] for i < j once,
     *  doubled, plus the diagonal, then REDC, all on MULX/ADCX/ADOX,
     *  and the same branch-free final subtraction. */
    void
    sqrAdx(u64 *out, const u64 *a) const
        requires hasAdx
    {
        if constexpr (K == 16)
            mintcbMontSqrAdx16(out, a, n_, n0inv_);
        else
            mintcbMontSqrAdx32(out, a, n_, n0inv_);
    }
#endif

    /** The portable multiply, by CIOS: each row adds a[i] * b, then one
     *  reduction step shifts the sum down a limb. */
    void
    mulPortable(u64 *out, const u64 *a, const u64 *b) const
    {
        const std::size_t k = limbs();
        u64 t[capacity + 2] = {};
        for (std::size_t i = 0; i < k; ++i) {
            u64 carry = 0;
            const u64 ai = a[i];
            for (std::size_t j = 0; j < k; ++j) {
                const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
                t[j] = static_cast<u64>(cur);
                carry = static_cast<u64>(cur >> 64);
            }
            u128 sum = static_cast<u128>(t[k]) + carry;
            t[k] = static_cast<u64>(sum);
            t[k + 1] = static_cast<u64>(sum >> 64);

            // m = t[0] * n0inv mod 2^64; t = (t + m * n) >> 64
            const u64 m = t[0] * n0inv_;
            carry = static_cast<u64>(
                (static_cast<u128>(m) * n_[0] + t[0]) >> 64);
            for (std::size_t j = 1; j < k; ++j) {
                const u128 cur = static_cast<u128>(m) * n_[j] + t[j] + carry;
                t[j - 1] = static_cast<u64>(cur);
                carry = static_cast<u64>(cur >> 64);
            }
            sum = static_cast<u128>(t[k]) + carry;
            t[k - 1] = static_cast<u64>(sum);
            t[k] = t[k + 1] + static_cast<u64>(sum >> 64);
        }
        reduceInto(out, t, t[k]);
    }

    /** The portable squaring: the products a[i] * a[j] for i < j once,
     *  doubled, plus the diagonal a[i]^2, then REDC (Montgomery
     *  reduction) of the 2k-limb square. */
    void
    sqrPortable(u64 *out, const u64 *a) const
    {
        const std::size_t k = limbs();
        u64 t[2 * capacity] = {};
        for (std::size_t i = 0; i + 1 < k; ++i) {
            u64 carry = 0;
            const u64 ai = a[i];
            for (std::size_t j = i + 1; j < k; ++j) {
                const u128 cur =
                    static_cast<u128>(ai) * a[j] + t[i + j] + carry;
                t[i + j] = static_cast<u64>(cur);
                carry = static_cast<u64>(cur >> 64);
            }
            t[i + k] = carry;
        }

        // t = 2 * t + sum of a[i]^2 * 2^(128i); a < R, so nothing
        // carries out of the top limb.
        u64 shifted = 0; // the bit the doubling moves into the next limb
        u64 carry = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const u128 sq = static_cast<u128>(a[i]) * a[i];
            const u64 lo = t[2 * i];
            const u64 hi = t[2 * i + 1];
            u128 cur = static_cast<u128>((lo << 1) | shifted) +
                       static_cast<u64>(sq) + carry;
            t[2 * i] = static_cast<u64>(cur);
            cur = static_cast<u128>((hi << 1) | (lo >> 63)) +
                  static_cast<u64>(sq >> 64) + (cur >> 64);
            t[2 * i + 1] = static_cast<u64>(cur);
            carry = static_cast<u64>(cur >> 64);
            shifted = hi >> 63;
        }

        // REDC: each row clears t[i] by adding m * n * 2^(64i); `top`
        // is the carry out of t[i + k], owed to the next row's t[i + k].
        u64 top = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const u64 m = t[i] * n0inv_;
            u64 c = 0;
            for (std::size_t j = 0; j < k; ++j) {
                const u128 cur = static_cast<u128>(m) * n_[j] + t[i + j] + c;
                t[i + j] = static_cast<u64>(cur);
                c = static_cast<u64>(cur >> 64);
            }
            const u128 cur = static_cast<u128>(t[i + k]) + c + top;
            t[i + k] = static_cast<u64>(cur);
            top = static_cast<u64>(cur >> 64);
        }
        reduceInto(out, t + k, top);
    }

  private:
    /** The modulus's limb count: a constant when K > 0. */
    std::size_t limbs() const { return K ? K : k_; }

    /** out = (carry:t) mod n for a (k+1)-limb value below 2n: a
     *  conditional final subtraction, which compares and branches (the
     *  ADX body subtracts unconditionally and selects). */
    void
    reduceInto(u64 *out, const u64 *t, u64 carry) const
    {
        const std::size_t k = limbs();
        bool ge = carry != 0;
        if (!ge) {
            ge = true;
            for (std::size_t i = k; i-- > 0;) {
                if (t[i] != n_[i]) {
                    ge = t[i] > n_[i];
                    break;
                }
            }
        }
        if (!ge) {
            std::copy_n(t, k, out);
            return;
        }
        u64 borrow = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const u128 sub = static_cast<u128>(t[i]) - n_[i] - borrow;
            out[i] = static_cast<u64>(sub);
            borrow = static_cast<u64>(sub >> 64) & 1;
        }
    }

    const u64 *n_;
    std::size_t k_;
    u64 n0inv_;
    bool useAdx_;
};

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_MONTGOMERY_HH
