/**
 * @file
 * Bignum implementation: schoolbook multiply, Knuth Algorithm D division,
 * Montgomery modular exponentiation (kernels in crypto/montgomery.hh).
 */

#include "crypto/bignum.hh"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/hex.hh"
#include "crypto/montgomery.hh"

namespace mintcb::crypto
{

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void
BigNum::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

BigNum
BigNum::fromLimbs(std::vector<u64> limbs)
{
    BigNum n;
    n.limbs_ = std::move(limbs);
    n.trim();
    return n;
}

BigNum::BigNum(u64 v)
{
    if (v)
        limbs_.push_back(v);
}

BigNum
BigNum::fromBytesBE(const Bytes &bytes)
{
    BigNum n;
    const std::size_t nbytes = bytes.size();
    const std::size_t nlimbs = (nbytes + 7) / 8;
    n.limbs_.assign(nlimbs, 0);
    for (std::size_t i = 0; i < nbytes; ++i) {
        // bytes[0] is most significant.
        const std::size_t byte_index = nbytes - 1 - i; // from LSB
        n.limbs_[i / 8] |= static_cast<u64>(bytes[byte_index]) << (8 * (i % 8));
    }
    n.trim();
    return n;
}

BigNum
BigNum::fromHexString(const std::string &hex)
{
    std::string padded = hex;
    if (padded.size() % 2)
        padded.insert(padded.begin(), '0');
    auto bytes = fromHex(padded);
    assert(bytes.ok() && "invalid hex literal for BigNum");
    return fromBytesBE(*bytes);
}

Bytes
BigNum::toBytesBE(std::size_t width) const
{
    const std::size_t min_bytes = (bitLength() + 7) / 8;
    const std::size_t out_bytes = width ? width : std::max<std::size_t>(
        min_bytes, 1);
    assert(out_bytes >= min_bytes && "value wider than requested encoding");
    Bytes out(out_bytes, 0);
    for (std::size_t i = 0; i < min_bytes; ++i) {
        const u64 limb = limbs_[i / 8];
        out[out_bytes - 1 - i] =
            static_cast<std::uint8_t>(limb >> (8 * (i % 8)));
    }
    return out;
}

std::string
BigNum::toHexString() const
{
    if (isZero())
        return "0";
    std::string s = toHex(toBytesBE());
    const std::size_t first = s.find_first_not_of('0');
    return s.substr(first);
}

std::size_t
BigNum::bitLength() const
{
    if (limbs_.empty())
        return 0;
    const u64 top = limbs_.back();
    std::size_t bits = (limbs_.size() - 1) * 64;
    return bits + (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool
BigNum::bit(std::size_t i) const
{
    const std::size_t limb = i / 64;
    if (limb >= limbs_.size())
        return false;
    return (limbs_[limb] >> (i % 64)) & 1;
}

int
BigNum::compare(const BigNum &o) const
{
    if (limbs_.size() != o.limbs_.size())
        return limbs_.size() < o.limbs_.size() ? -1 : 1;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i])
            return limbs_[i] < o.limbs_[i] ? -1 : 1;
    }
    return 0;
}

BigNum
BigNum::operator+(const BigNum &o) const
{
    const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    std::vector<u64> out(n + 1, 0);
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u64 a = i < limbs_.size() ? limbs_[i] : 0;
        const u64 b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const u128 sum = static_cast<u128>(a) + b + carry;
        out[i] = static_cast<u64>(sum);
        carry = static_cast<u64>(sum >> 64);
    }
    out[n] = carry;
    return fromLimbs(std::move(out));
}

BigNum
BigNum::operator-(const BigNum &o) const
{
    assert(*this >= o && "BigNum subtraction underflow");
    std::vector<u64> out(limbs_.size(), 0);
    u64 borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const u64 a = limbs_[i];
        const u64 b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const u128 sub = static_cast<u128>(a) - b - borrow;
        out[i] = static_cast<u64>(sub);
        borrow = (sub >> 64) ? 1 : 0; // wrapped => borrow
    }
    assert(borrow == 0);
    return fromLimbs(std::move(out));
}

BigNum
BigNum::operator*(const BigNum &o) const
{
    if (isZero() || o.isZero())
        return BigNum();
    std::vector<u64> out(limbs_.size() + o.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        u64 carry = 0;
        const u64 a = limbs_[i];
        for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
            const u128 cur = static_cast<u128>(a) * o.limbs_[j] +
                             out[i + j] + carry;
            out[i + j] = static_cast<u64>(cur);
            carry = static_cast<u64>(cur >> 64);
        }
        out[i + o.limbs_.size()] += carry;
    }
    return fromLimbs(std::move(out));
}

BigNum
BigNum::shiftLeft(std::size_t bits) const
{
    if (isZero() || bits == 0) {
        BigNum copy = *this;
        return copy;
    }
    const std::size_t limb_shift = bits / 64;
    const std::size_t bit_shift = bits % 64;
    std::vector<u64> out(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        out[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift)
                                         : limbs_[i];
        if (bit_shift)
            out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
    return fromLimbs(std::move(out));
}

BigNum
BigNum::shiftRight(std::size_t bits) const
{
    const std::size_t limb_shift = bits / 64;
    if (limb_shift >= limbs_.size())
        return BigNum();
    const std::size_t bit_shift = bits % 64;
    std::vector<u64> out(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift && i + limb_shift + 1 < limbs_.size())
            out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    return fromLimbs(std::move(out));
}

BigNum
BigNum::addU64(u64 v) const
{
    return *this + BigNum(v);
}

BigNum
BigNum::subU64(u64 v) const
{
    return *this - BigNum(v);
}

BigNum
BigNum::mulU64(u64 v) const
{
    return *this * BigNum(v);
}

u64
BigNum::modU64(u64 divisor) const
{
    assert(divisor != 0);
    u128 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;)
        rem = ((rem << 64) | limbs_[i]) % divisor;
    return static_cast<u64>(rem);
}

BigNum::DivMod
BigNum::divmod(const BigNum &divisor) const
{
    assert(!divisor.isZero() && "division by zero");
    if (*this < divisor)
        return {BigNum(), *this};

    // Single-limb divisor: simple long division.
    if (divisor.limbs_.size() == 1) {
        const u64 d = divisor.limbs_[0];
        std::vector<u64> q(limbs_.size(), 0);
        u128 rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const u128 cur = (rem << 64) | limbs_[i];
            q[i] = static_cast<u64>(cur / d);
            rem = cur % d;
        }
        return {fromLimbs(std::move(q)), BigNum(static_cast<u64>(rem))};
    }

    // Knuth TAOCP Vol 2, Algorithm D. Normalize so the divisor's top limb
    // has its high bit set.
    const std::size_t shift =
        static_cast<std::size_t>(__builtin_clzll(divisor.limbs_.back()));
    const BigNum u_norm = shiftLeft(shift);
    const BigNum v_norm = divisor.shiftLeft(shift);

    const std::size_t n = v_norm.limbs_.size();
    const std::size_t m = u_norm.limbs_.size() - n;

    std::vector<u64> u(u_norm.limbs_);
    u.push_back(0); // u has m + n + 1 limbs
    const std::vector<u64> &v = v_norm.limbs_;
    std::vector<u64> q(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1], then correct.
        const u128 numerator =
            (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
        u128 q_hat = numerator / v[n - 1];
        u128 r_hat = numerator % v[n - 1];

        while (q_hat >> 64 ||
               q_hat * v[n - 2] > ((r_hat << 64) | u[j + n - 2])) {
            --q_hat;
            r_hat += v[n - 1];
            if (r_hat >> 64)
                break;
        }

        // Multiply-and-subtract: u[j..j+n] -= q_hat * v[0..n-1].
        u128 borrow = 0;
        u128 carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const u128 product = q_hat * v[i] + carry;
            carry = product >> 64;
            const u128 sub = static_cast<u128>(u[j + i]) -
                             static_cast<u64>(product) - borrow;
            u[j + i] = static_cast<u64>(sub);
            borrow = (sub >> 64) ? 1 : 0;
        }
        const u128 sub = static_cast<u128>(u[j + n]) -
                         static_cast<u64>(carry) - borrow;
        u[j + n] = static_cast<u64>(sub);
        borrow = (sub >> 64) ? 1 : 0;

        q[j] = static_cast<u64>(q_hat);

        if (borrow) {
            // q_hat was one too large: add the divisor back.
            --q[j];
            u128 add_carry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const u128 sum = static_cast<u128>(u[j + i]) + v[i] +
                                 add_carry;
                u[j + i] = static_cast<u64>(sum);
                add_carry = sum >> 64;
            }
            u[j + n] = static_cast<u64>(u[j + n] + add_carry);
        }
    }

    u.resize(n);
    const BigNum remainder = fromLimbs(std::move(u)).shiftRight(shift);
    return {fromLimbs(std::move(q)), remainder};
}

template <std::size_t K>
BigNum
BigNum::montExp(const BigNum &base, const BigNum &exp, const BigNum &m)
{
    using Kernel = MontKernel<K>;
    constexpr std::size_t cap = Kernel::capacity;
    const std::size_t k = m.limbs_.size();
    const Kernel mont(m.limbs_.data(), k);

    // R mod n and R^2 mod n via shifting.
    const BigNum r_mod_n = BigNum(1).shiftLeft(64 * k) % m;
    const BigNum r2_mod_n = (r_mod_n * r_mod_n) % m;

    const auto load = [k](u64 *out, const BigNum &v) {
        std::copy(v.limbs_.begin(), v.limbs_.end(), out);
        std::fill(out + v.limbs_.size(), out + k, 0);
    };

    // table[v] = base^v in the Montgomery domain; the ladder uses only
    // table[1].
    constexpr std::size_t windowBits = 4;
    u64 table[std::size_t{1} << windowBits][cap] = {};
    u64 acc[cap] = {};
    u64 raw[cap] = {};
    load(raw, base);
    load(acc, r2_mod_n);
    mont.mul(table[1], raw, acc); // to Montgomery

    // Fixed 4-bit windows pay for their 14-entry table only when the
    // exponent is long (RSA private exponents, Miller-Rabin witnesses);
    // short exponents (65537 verify path) keep the plain ladder.
    const std::size_t expBits = exp.bitLength();
    if (expBits >= 2 * 64) {
        load(table[0], r_mod_n);
        for (std::size_t i = 2; i < std::size(table); ++i)
            mont.mul(table[i], table[i - 1], table[1]);
        const std::size_t nwin =
            (expBits + windowBits - 1) / windowBits;
        for (std::size_t w = nwin; w-- > 0;) {
            std::size_t v = 0;
            for (std::size_t b = windowBits; b-- > 0;)
                v = (v << 1) | (exp.bit(w * windowBits + b) ? 1u : 0u);
            if (w == nwin - 1) {
                // top window: skip the 1^16 squarings
                std::copy_n(table[v], k, acc);
                continue;
            }
            for (std::size_t s = 0; s < windowBits; ++s)
                mont.sqr(acc, acc);
            if (v)
                mont.mul(acc, acc, table[v]);
        }
    } else {
        load(acc, r_mod_n);
        for (std::size_t i = expBits; i-- > 0;) {
            mont.sqr(acc, acc);
            if (exp.bit(i))
                mont.mul(acc, acc, table[1]);
        }
    }

    // Convert out of the Montgomery domain: multiply by 1.
    std::fill_n(raw, k, 0);
    raw[0] = 1;
    mont.mul(acc, acc, raw);
    return fromLimbs(std::vector<u64>(acc, acc + k));
}

BigNum
BigNum::modExp(const BigNum &exp, const BigNum &m) const
{
    assert(!m.isZero() && "modExp with zero modulus");
    if (m == BigNum(1))
        return BigNum();
    const BigNum base = *this % m;
    if (exp.isZero())
        return BigNum(1);
    if (base.isZero())
        return BigNum();

    const std::size_t k = m.limbs_.size();
    if (m.isOdd()) {
        if (k == 16)
            return montExp<16>(base, exp, m);
        if (k == 32)
            return montExp<32>(base, exp, m);
        if (k <= montMaxLimbs)
            return montExp<0>(base, exp, m);
    }

    // Even (rare in RSA) or wider than the Montgomery kernel takes:
    // square-and-multiply with division.
    BigNum result(1);
    BigNum b = base;
    for (std::size_t i = 0; i < exp.bitLength(); ++i) {
        if (exp.bit(i))
            result = (result * b) % m;
        b = (b * b) % m;
    }
    return result;
}

BigNum
BigNum::gcd(BigNum a, BigNum b)
{
    while (!b.isZero()) {
        BigNum r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

BigNum
BigNum::modInverse(const BigNum &m) const
{
    // Extended Euclid with explicit sign tracking (values stay unsigned).
    assert(!m.isZero());
    BigNum r0 = m;
    BigNum r1 = *this % m;
    BigNum t0;      // coefficient for m
    BigNum t1(1);   // coefficient for *this
    bool t0_neg = false, t1_neg = false;

    while (!r1.isZero()) {
        const DivMod dm = r0.divmod(r1);
        const BigNum &q = dm.quotient;

        // t2 = t0 - q * t1 with sign handling.
        const BigNum qt1 = q * t1;
        BigNum t2;
        bool t2_neg;
        if (t0_neg == t1_neg) {
            // Same sign: t0 - q*t1 may flip sign.
            if (t0 >= qt1) {
                t2 = t0 - qt1;
                t2_neg = t0_neg;
            } else {
                t2 = qt1 - t0;
                t2_neg = !t0_neg;
            }
        } else {
            // Opposite signs: magnitudes add, sign follows t0.
            t2 = t0 + qt1;
            t2_neg = t0_neg;
        }

        r0 = r1;
        r1 = dm.remainder;
        t0 = std::move(t1);
        t0_neg = t1_neg;
        t1 = std::move(t2);
        t1_neg = t2_neg;
    }

    if (r0 != BigNum(1))
        return BigNum(); // no inverse
    if (t0_neg)
        return m - (t0 % m);
    return t0 % m;
}

} // namespace mintcb::crypto
