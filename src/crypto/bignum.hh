/**
 * @file
 * Arbitrary-precision unsigned integers for the RSA substrate.
 *
 * The TPM v1.2 seals, unseals, and quotes with a 2048-bit RSA Storage Root
 * Key / AIK (paper Section 4.2: "the TPM's 2048-bit RSA Storage Root Key";
 * Section 5.7: "many of its operations use a 2048-bit RSA keypair"). mintcb
 * implements that keypair for real, on top of this bignum: 64-bit limbs,
 * schoolbook multiplication, Knuth Algorithm D division, and Montgomery
 * modular exponentiation for odd moduli.
 *
 * Only non-negative values are representable; subtraction of a larger value
 * from a smaller one is a programmer error (assert), matching how the RSA
 * math uses it.
 */

#ifndef MINTCB_CRYPTO_BIGNUM_HH
#define MINTCB_CRYPTO_BIGNUM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mintcb::crypto
{

struct BigNumDivMod;

/** Arbitrary-precision unsigned integer (little-endian 64-bit limbs). */
class BigNum
{
  public:
    /** Zero. */
    BigNum() = default;

    /** From a machine word. */
    explicit BigNum(std::uint64_t v);

    /** @name Construction from encodings. @{ */
    /** Parse big-endian bytes (TPM wire format). */
    static BigNum fromBytesBE(const Bytes &bytes);
    /** Parse a hexadecimal string (test vectors). */
    static BigNum fromHexString(const std::string &hex);
    /** @} */

    /** Encode as big-endian bytes, zero-padded/truncation-checked to
     *  @p width bytes (0 = minimal width). */
    Bytes toBytesBE(std::size_t width = 0) const;

    /** Render as lowercase hex with no leading zeros ("0" for zero). */
    std::string toHexString() const;

    /** @name Predicates and size queries. @{ */
    bool isZero() const { return limbs_.empty(); }
    bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
    /** Number of significant bits (0 for zero). */
    std::size_t bitLength() const;
    /** Value of bit @p i (LSB = 0). */
    bool bit(std::size_t i) const;
    /** Low 64 bits. */
    std::uint64_t toU64() const { return limbs_.empty() ? 0 : limbs_[0]; }
    /** @} */

    /** Three-way comparison: negative/zero/positive like memcmp. */
    int compare(const BigNum &o) const;

    bool operator==(const BigNum &o) const { return compare(o) == 0; }
    bool operator!=(const BigNum &o) const { return compare(o) != 0; }
    bool operator<(const BigNum &o) const { return compare(o) < 0; }
    bool operator<=(const BigNum &o) const { return compare(o) <= 0; }
    bool operator>(const BigNum &o) const { return compare(o) > 0; }
    bool operator>=(const BigNum &o) const { return compare(o) >= 0; }

    /** @name Arithmetic. Subtraction requires *this >= o. @{ */
    BigNum operator+(const BigNum &o) const;
    BigNum operator-(const BigNum &o) const;
    BigNum operator*(const BigNum &o) const;
    /** Quotient and remainder in one pass; divisor must be nonzero. */
    using DivMod = BigNumDivMod;
    DivMod divmod(const BigNum &divisor) const;
    BigNum operator/(const BigNum &o) const; // divmod(o).quotient
    BigNum operator%(const BigNum &o) const; // divmod(o).remainder
    /** @} */

    /** @name Shifts. @{ */
    BigNum shiftLeft(std::size_t bits) const;
    BigNum shiftRight(std::size_t bits) const;
    /** @} */

    /** @name Small-word helpers. @{ */
    BigNum addU64(std::uint64_t v) const;
    BigNum subU64(std::uint64_t v) const;
    BigNum mulU64(std::uint64_t v) const;
    /** Remainder modulo a machine word (divisor nonzero). */
    std::uint64_t modU64(std::uint64_t divisor) const;
    /** @} */

    /** Modular exponentiation: this^exp mod m (m nonzero). Uses Montgomery
     *  multiplication and squaring when m is odd and at most
     *  montMaxLimbs wide (fixed 4-bit windows for long exponents),
     *  division-based reduction otherwise. */
    BigNum modExp(const BigNum &exp, const BigNum &m) const;

    /** Greatest common divisor. */
    static BigNum gcd(BigNum a, BigNum b);

    /** Modular inverse of *this mod m; returns zero when none exists. */
    BigNum modInverse(const BigNum &m) const;

    /** Number of limbs (for tests poking at normalization). */
    std::size_t limbCount() const { return limbs_.size(); }

  private:
    void trim();
    static BigNum fromLimbs(std::vector<std::uint64_t> limbs);
    /** base^exp mod m for odd m, base < m, through MontKernel<K>. */
    template <std::size_t K>
    static BigNum montExp(const BigNum &base, const BigNum &exp,
                          const BigNum &m);

    std::vector<std::uint64_t> limbs_; // little-endian, no trailing zeros
};

/** Quotient/remainder pair produced by BigNum::divmod. */
struct BigNumDivMod
{
    BigNum quotient;
    BigNum remainder;
};

inline BigNum
BigNum::operator/(const BigNum &o) const
{
    return divmod(o).quotient;
}

inline BigNum
BigNum::operator%(const BigNum &o) const
{
    return divmod(o).remainder;
}

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_BIGNUM_HH
