/**
 * @file
 * RSA implementation.
 */

#include "crypto/rsa.hh"

#include <atomic>
#include <cassert>
#include <string>

#include "common/bytebuf.hh"
#include "crypto/prime.hh"
#include "crypto/sha1.hh"

namespace mintcb::crypto
{

namespace
{

// Relaxed: each counter is a tally with no ordering duty.
std::atomic<std::uint64_t> privateOpCount{0};
std::atomic<std::uint64_t> publicOpCount{0};

// DER prefix of DigestInfo{SHA-1} from RFC 3447 section 9.2.
constexpr std::uint8_t sha1DigestInfoPrefix[] = {
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e,
    0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
};

Bytes
digestInfoSha1(const Bytes &message)
{
    Bytes out(std::begin(sha1DigestInfoPrefix),
              std::end(sha1DigestInfoPrefix));
    const Bytes digest = Sha1::digestBytes(message);
    out.insert(out.end(), digest.begin(), digest.end());
    return out;
}

/** EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo. */
Result<Bytes>
emsaPkcs1(const Bytes &digest_info, std::size_t em_len)
{
    if (em_len < digest_info.size() + 11)
        return Error(Errc::invalidArgument, "modulus too small for EMSA");
    Bytes em(em_len, 0xff);
    em[0] = 0x00;
    em[1] = 0x01;
    em[em_len - digest_info.size() - 1] = 0x00;
    std::copy(digest_info.begin(), digest_info.end(),
              em.end() - static_cast<std::ptrdiff_t>(digest_info.size()));
    return em;
}

} // namespace

Bytes
RsaPublicKey::encode() const
{
    ByteWriter w;
    w.lengthPrefixed(n.toBytesBE());
    w.lengthPrefixed(e.toBytesBE());
    return w.take();
}

Result<RsaPublicKey>
RsaPublicKey::decode(const Bytes &wire)
{
    ByteReader r(wire);
    RsaPublicKey key;
    key.n = BigNum::fromBytesBE(r.getLengthPrefixed());
    key.e = BigNum::fromBytesBE(r.getLengthPrefixed());
    if (!r.ok())
        return r.error();
    if (key.n.isZero() || key.e.isZero())
        return Error(Errc::invalidArgument, "degenerate RSA public key");
    return key;
}

Bytes
RsaPublicKey::fingerprint() const
{
    return Sha1::digestBytes(encode());
}

Bytes
RsaPrivateKey::encode() const
{
    ByteWriter w;
    w.lengthPrefixed(pub.n.toBytesBE());
    w.lengthPrefixed(pub.e.toBytesBE());
    w.lengthPrefixed(d.toBytesBE());
    w.lengthPrefixed(p.toBytesBE());
    w.lengthPrefixed(q.toBytesBE());
    w.lengthPrefixed(dP.toBytesBE());
    w.lengthPrefixed(dQ.toBytesBE());
    w.lengthPrefixed(qInv.toBytesBE());
    return w.take();
}

bool
RsaPrivateKey::hasCrt() const
{
    return !p.isZero() && !q.isZero() && !dP.isZero() && !dQ.isZero() &&
           !qInv.isZero();
}

void
RsaPrivateKey::augmentCrt()
{
    if (hasCrt() || p.isZero() || q.isZero())
        return;
    dP = d % p.subU64(1);
    dQ = d % q.subU64(1);
    qInv = q.modInverse(p);
}

Result<RsaPrivateKey>
RsaPrivateKey::decode(const Bytes &wire)
{
    ByteReader r(wire);
    RsaPrivateKey key;
    key.pub.n = BigNum::fromBytesBE(r.getLengthPrefixed());
    key.pub.e = BigNum::fromBytesBE(r.getLengthPrefixed());
    key.d = BigNum::fromBytesBE(r.getLengthPrefixed());
    // Legacy CRT-less keys stop here; the full layout carries p, q and
    // the three CRT values.
    if (r.ok() && !r.atEnd()) {
        key.p = BigNum::fromBytesBE(r.getLengthPrefixed());
        key.q = BigNum::fromBytesBE(r.getLengthPrefixed());
        key.dP = BigNum::fromBytesBE(r.getLengthPrefixed());
        key.dQ = BigNum::fromBytesBE(r.getLengthPrefixed());
        key.qInv = BigNum::fromBytesBE(r.getLengthPrefixed());
    }
    return r.finish(std::move(key), Errc::invalidArgument,
                    "trailing bytes in RSA key");
}

Result<RsaPrivateKey>
rsaGenerate(Rng &rng, std::size_t bits)
{
    if (bits < 128 || bits % 2 != 0) {
        return Error(Errc::invalidArgument,
                     "unsupported RSA modulus size: " +
                         std::to_string(bits) + " bits");
    }
    const BigNum e(65537);
    // An attempt succeeds with probability above 1/3 (two random
    // half-width primes give a full-width modulus with probability
    // 2 - 2 ln 2), so all 256 fail with probability below 2^-149.
    constexpr int maxAttempts = 256;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        auto pGen = generatePrime(rng, bits / 2);
        if (!pGen)
            return pGen.error();
        auto qGen = generatePrime(rng, bits / 2);
        if (!qGen)
            return qGen.error();
        const BigNum p = pGen.take();
        const BigNum q = qGen.take();
        if (p == q)
            continue;
        const BigNum n = p * q;
        if (n.bitLength() != bits)
            continue;
        const BigNum p1 = p.subU64(1);
        const BigNum q1 = q.subU64(1);
        const BigNum phi = p1 * q1;
        if (BigNum::gcd(e, phi) != BigNum(1))
            continue;
        const BigNum d = e.modInverse(phi);
        assert(!d.isZero());

        RsaPrivateKey key;
        key.pub.n = n;
        key.pub.e = e;
        key.d = d;
        if (p > q) {
            key.p = p;
            key.q = q;
        } else {
            key.p = q;
            key.q = p;
        }
        key.dP = key.d % key.p.subU64(1);
        key.dQ = key.d % key.q.subU64(1);
        key.qInv = key.q.modInverse(key.p);
        assert(!key.qInv.isZero());
        return key;
    }
    return Error(Errc::resourceExhausted,
                 "no " + std::to_string(bits) + "-bit RSA modulus in " +
                     std::to_string(maxAttempts) + " attempts");
}

RsaOpCounts
rsaOpCounts()
{
    return {privateOpCount.load(std::memory_order_relaxed),
            publicOpCount.load(std::memory_order_relaxed)};
}

BigNum
rsaPublicOp(const RsaPublicKey &key, const BigNum &m)
{
    assert(m < key.n);
    publicOpCount.fetch_add(1, std::memory_order_relaxed);
    return m.modExp(key.e, key.n);
}

BigNum
rsaPrivateOp(const RsaPrivateKey &key, const BigNum &c)
{
    assert(c < key.pub.n);
    privateOpCount.fetch_add(1, std::memory_order_relaxed);
    // Keys without CRT parameters (legacy cache entries, imported d-only
    // keys) take the full-width path; the result is identical.
    if (!key.hasCrt())
        return c.modExp(key.d, key.pub.n);
    // Garner's CRT recombination: ~4x faster than a full-width modexp.
    const BigNum m1 = (c % key.p).modExp(key.dP, key.p);
    const BigNum m2 = (c % key.q).modExp(key.dQ, key.q);
    // h = qInv * (m1 - m2) mod p
    BigNum diff;
    if (m1 >= m2) {
        diff = m1 - m2;
    } else {
        diff = key.p - ((m2 - m1) % key.p);
        if (diff == key.p)
            diff = BigNum();
    }
    const BigNum h = (key.qInv * diff) % key.p;
    return m2 + key.q * h;
}

Bytes
rsaSignSha1(const RsaPrivateKey &key, const Bytes &message)
{
    const std::size_t k = key.pub.modulusBytes();
    auto em = emsaPkcs1(digestInfoSha1(message), k);
    assert(em.ok() && "modulus too small to sign SHA-1 DigestInfo");
    const BigNum m = BigNum::fromBytesBE(*em);
    return rsaPrivateOp(key, m).toBytesBE(k);
}

bool
rsaVerifySha1(const RsaPublicKey &key, const Bytes &message,
              const Bytes &signature)
{
    const std::size_t k = key.modulusBytes();
    if (signature.size() != k)
        return false;
    const BigNum s = BigNum::fromBytesBE(signature);
    if (s >= key.n)
        return false;
    const Bytes em = rsaPublicOp(key, s).toBytesBE(k);
    auto expected = emsaPkcs1(digestInfoSha1(message), k);
    if (!expected.ok())
        return false;
    return em == *expected;
}

Result<Bytes>
rsaEncrypt(const RsaPublicKey &key, Rng &rng, const Bytes &plaintext)
{
    const std::size_t k = key.modulusBytes();
    if (plaintext.size() + 11 > k) {
        return Error(Errc::invalidArgument,
                     "plaintext too long for RSA modulus");
    }
    // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero random) 0x00 M
    Bytes em(k, 0);
    em[1] = 0x02;
    const std::size_t ps_len = k - plaintext.size() - 3;
    for (std::size_t i = 0; i < ps_len; ++i) {
        std::uint8_t b = 0;
        while (b == 0)
            b = static_cast<std::uint8_t>(rng.next() & 0xff);
        em[2 + i] = b;
    }
    em[2 + ps_len] = 0x00;
    std::copy(plaintext.begin(), plaintext.end(),
              em.begin() + static_cast<std::ptrdiff_t>(2 + ps_len + 1));
    const BigNum m = BigNum::fromBytesBE(em);
    return rsaPublicOp(key, m).toBytesBE(k);
}

Result<Bytes>
rsaDecrypt(const RsaPrivateKey &key, const Bytes &ciphertext)
{
    const std::size_t k = key.pub.modulusBytes();
    if (ciphertext.size() != k)
        return Error(Errc::invalidArgument, "ciphertext length mismatch");
    const BigNum c = BigNum::fromBytesBE(ciphertext);
    if (c >= key.pub.n)
        return Error(Errc::invalidArgument, "ciphertext out of range");
    const Bytes em = rsaPrivateOp(key, c).toBytesBE(k);
    if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02)
        return Error(Errc::integrityFailure, "bad PKCS#1 padding");
    std::size_t sep = 2;
    while (sep < em.size() && em[sep] != 0x00)
        ++sep;
    if (sep == em.size() || sep < 10)
        return Error(Errc::integrityFailure, "bad PKCS#1 padding");
    return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1),
                 em.end());
}

} // namespace mintcb::crypto
