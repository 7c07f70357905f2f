/**
 * @file
 * Crypto hot-path microbenchmark: RSA-CRT + windowed Montgomery vs the
 * plain full-width modexp fallback, the Montgomery products at 16 and 32
 * limbs on the body this host dispatches to vs the portable one,
 * incremental SHA/HMAC contexts vs one-shot digests, and the SHA-256
 * compression kernel this host dispatches to vs the portable one.
 *
 * Unlike the figure benches, the interesting quantity here is *host*
 * wall time -- the simulated-time model is deliberately untouched by
 * these optimisations. Host timings vary per machine and per run, so
 * the JSON artifact gates only host-independent *ratios* computed from
 * exact counts (counter names carry "ratio"); every timing, and every
 * ratio of two timings, carries "host" in its label so the regression
 * checker skips it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "common/rng.hh"
#include "crypto/hmac.hh"
#include "crypto/keycache.hh"
#include "crypto/montgomery.hh"
#include "crypto/rsa.hh"
#include "crypto/sha1.hh"
#include "crypto/sha256.hh"
#include "support/benchutil.hh"

using namespace mintcb;

namespace
{

/** Host milliseconds per call, averaged over @p iters calls. */
template <typename F>
double
hostMsPerCall(F &&fn, int iters)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           iters;
}

/** Best (minimum) of @p reps timing runs -- robust against CI noise. */
template <typename F>
double
bestHostMs(F &&fn, int iters, int reps = 3)
{
    double best = hostMsPerCall(fn, iters);
    for (int r = 1; r < reps; ++r)
        best = std::min(best, hostMsPerCall(fn, iters));
    return best;
}

/** Montgomery products @p fn makes on this thread. */
template <typename F>
std::uint64_t
montProducts(F &&fn)
{
    const crypto::MontCounts before = crypto::montCounts();
    fn();
    const crypto::MontCounts after = crypto::montCounts();
    return (after.mul - before.mul) + (after.sqr - before.sqr);
}

/** The benchmark key, shared with the rest of the process via the
 *  deterministic cache (so repeated runs measure the same key). */
const crypto::RsaPrivateKey &
benchKey()
{
    return crypto::cachedKey("bench-crypto-micro", crypto::tpmKeyBits);
}

/** Same key with every CRT hint stripped: rsaPrivateOp falls back to
 *  the full-width d-exponent path, as for a legacy imported key. */
crypto::RsaPrivateKey
strippedKey()
{
    crypto::RsaPrivateKey key = benchKey();
    key.p = crypto::BigNum();
    key.q = crypto::BigNum();
    key.dP = crypto::BigNum();
    key.dQ = crypto::BigNum();
    key.qInv = crypto::BigNum();
    return key;
}

void
rsaSection()
{
    benchutil::heading(
        "RSA-2048 private op: CRT + windowed Montgomery vs plain modexp");

    const crypto::RsaPrivateKey &crt = benchKey();
    const crypto::RsaPrivateKey plain = strippedKey();
    const Bytes message(64, 0x5a);

    // Byte-identity first: the fast path must be invisible in output.
    // Each sign's Montgomery products are counted on the way: the CRT
    // halves run the 16-limb kernel, the plain fallback the 32-limb
    // one, and a product costs limbs^2 word multiplies in either.
    Bytes sig_crt;
    Bytes sig_plain;
    const std::uint64_t crt_products =
        montProducts([&] { sig_crt = crypto::rsaSignSha1(crt, message); });
    const std::uint64_t plain_products = montProducts(
        [&] { sig_plain = crypto::rsaSignSha1(plain, message); });
    benchutil::check("CRT and plain-modexp signatures byte-identical",
                     sig_crt == sig_plain);
    benchutil::check("signature verifies under the public key",
                     crypto::rsaVerifySha1(crt.pub, message, sig_crt));
    const double work_ratio =
        static_cast<double>(plain_products * 32 * 32) /
        static_cast<double>(crt_products * 16 * 16);

    const double crt_ms = bestHostMs(
        [&] { benchmark::DoNotOptimize(crypto::rsaSignSha1(crt, message)); },
        4);
    const double plain_ms = bestHostMs(
        [&] {
            benchmark::DoNotOptimize(crypto::rsaSignSha1(plain, message));
        },
        2);
    const double ratio = plain_ms / crt_ms;

    benchutil::rowSimOnly("RSA-2048 sign, CRT (host ms)", crt_ms, "ms");
    benchutil::rowSimOnly("RSA-2048 sign, plain (host ms)", plain_ms,
                          "ms");
    benchutil::rowSimOnly("CRT speedup (host-timed)", ratio, "x");
    benchutil::rowSimOnly("CRT work ratio (limbs^2-weighted)",
                          work_ratio, "x");
    benchutil::check("CRT sign at least 2x the plain fallback",
                     work_ratio >= 2.0);
    // Gated (one-sided) in CI from the exact product counts, so host
    // load cannot trip it. Name must carry "ratio" and avoid host/wall.
    benchutil::counterDelta("ratio_rsa_crt_work", work_ratio);
    benchutil::counterDelta("host_ratio_rsa_crt_speedup", ratio);
    benchutil::counterDelta("host_ms_rsa_crt_sign", crt_ms);
    benchutil::counterDelta("host_ms_rsa_plain_sign", plain_ms);

    // The public operation every seal pays (SRK encryption of the
    // 32-byte inner key): the 32-limb kernel on the e = 65537 ladder.
    Rng rng(0x5ea1);
    const Bytes inner_key = rng.bytes(32);
    const double encrypt_ms = bestHostMs(
        [&] {
            benchmark::DoNotOptimize(
                crypto::rsaEncrypt(crt.pub, rng, inner_key));
        },
        50);
    benchutil::rowSimOnly("RSA-2048 encrypt, 32 B (host ms)", encrypt_ms,
                          "ms");
    benchutil::counterDelta("host_ms_rsa_encrypt", encrypt_ms);
}

/** @p v as K little-endian limbs (v < 2^(64K)). */
template <std::size_t K>
std::array<std::uint64_t, K>
limbsOf(const crypto::BigNum &v)
{
    const Bytes be = v.toBytesBE(8 * K);
    std::array<std::uint64_t, K> out{};
    for (std::size_t i = 0; i < be.size(); ++i)
        out[K - 1 - i / 8] = (out[K - 1 - i / 8] << 8) | be[i];
    return out;
}

/** Host ns per product for one Montgomery body; each call feeds the
 *  next, so the timing is one dependent chain. */
template <typename F>
double
montNs(F &&product)
{
    constexpr int iters = 20000;
    return bestHostMs(product, iters) * 1e6;
}

/** Both bodies of MontKernel<K> over modulus @p n and residues @p a and
 *  @p b: the dispatched products and the portable ones, timed and
 *  reported as host_ns_mont<K>_{mul,sqr}[_portable]. Returns whether
 *  the ADX body (where this CPU runs it) matched the portable one. */
template <std::size_t K>
bool
montWidth(const crypto::BigNum &n, const crypto::BigNum &a,
          const crypto::BigNum &b)
{
    const auto nl = limbsOf<K>(n);
    const auto al = limbsOf<K>(a);
    const auto bl = limbsOf<K>(b);
    const crypto::MontKernel<K> mont(nl.data(), K);

    auto squared = al;
    auto product = al;
    mont.sqr(squared.data(), squared.data());
    mont.mul(product.data(), al.data(), al.data());
    const std::string width = std::to_string(K) + "-limb";
    benchutil::check("montSqr(a) == montMul(a, a), " + width,
                     squared == product);

    bool agree = true;
#if MINTCB_MONT_ADX
    if (crypto::montAdxAvailable()) {
        for (const auto &y : {al, bl}) {
            auto adx = al;
            auto portable = al;
            mont.mulAdx(adx.data(), al.data(), y.data());
            mont.mulPortable(portable.data(), al.data(), y.data());
            agree &= adx == portable;
            mont.sqrAdx(adx.data(), y.data());
            mont.sqrPortable(portable.data(), y.data());
            agree &= adx == portable;
        }
    }
#endif

    auto x = al;
    const double mul_ns =
        montNs([&] { mont.mul(x.data(), x.data(), bl.data()); });
    const double sqr_ns = montNs([&] { mont.sqr(x.data(), x.data()); });
    const double mul_portable_ns =
        montNs([&] { mont.mulPortable(x.data(), x.data(), bl.data()); });
    const double sqr_portable_ns =
        montNs([&] { mont.sqrPortable(x.data(), x.data()); });
    benchmark::DoNotOptimize(x);

    benchutil::rowSimOnly(width + " montMul (host ns)", mul_ns, "ns");
    benchutil::rowSimOnly(width + " montSqr (host ns)", sqr_ns, "ns");
    benchutil::rowSimOnly(width + " montMul portable (host ns)",
                          mul_portable_ns, "ns");
    benchutil::rowSimOnly(width + " montSqr portable (host ns)",
                          sqr_portable_ns, "ns");
    benchutil::rowSimOnly(width + " montSqr / montMul (host)",
                          sqr_ns / mul_ns, "x");
    const std::string key = "host_ns_mont" + std::to_string(K);
    benchutil::counterDelta(key + "_mul", mul_ns);
    benchutil::counterDelta(key + "_sqr", sqr_ns);
    benchutil::counterDelta(key + "_mul_portable", mul_portable_ns);
    benchutil::counterDelta(key + "_sqr_portable", sqr_portable_ns);
    return agree;
}

void
montSection()
{
    benchutil::heading(
        "Montgomery kernels: ADX and portable bodies at 16 and 32 limbs");

    // A CRT half's modulus and two residues below it, then the public
    // modulus and two residues below that.
    const crypto::RsaPrivateKey &key = benchKey();
    const bool agree16 = montWidth<16>(key.p, key.dP, key.qInv);
    const bool agree32 = montWidth<32>(key.pub.n, key.d, key.p * key.dQ);
    benchutil::check("ADX body == portable body at 16 and 32 limbs",
                     agree16 && agree32);

    const char *kernel = crypto::montUsesAdx() ? "ADX" : "portable";
    benchutil::rowSimOnly(std::string("Montgomery kernel (host): ") + kernel,
                          1.0, "");
}

void
shaSection()
{
    benchutil::heading("Incremental SHA / HMAC contexts");

    // Equality across awkward chunkings: 1 B, unaligned, one short of a
    // block, exactly a block, one past, multiple blocks.
    const std::size_t chunks[] = {1, 7, 63, 64, 65, 128, 1000};
    Rng rng(0x5eedc0de);
    const Bytes data = rng.bytes(4096 + 17);

    bool sha1_ok = true;
    bool sha256_ok = true;
    for (std::size_t chunk : chunks) {
        crypto::Sha1 s1;
        crypto::Sha256 s2;
        for (std::size_t at = 0; at < data.size(); at += chunk) {
            const std::size_t n = std::min(chunk, data.size() - at);
            s1.update(data.data() + at, n);
            s2.update(data.data() + at, n);
        }
        const auto d1 = s1.finish();
        const auto d2 = s2.finish();
        sha1_ok &= std::memcmp(d1.data(),
                               crypto::Sha1::digestBytes(data).data(),
                               d1.size()) == 0;
        sha256_ok &= std::memcmp(d2.data(),
                                 crypto::Sha256::digestBytes(data).data(),
                                 d2.size()) == 0;
    }
    benchutil::check("incremental SHA-1 == one-shot across chunk sweep",
                     sha1_ok);
    benchutil::check("incremental SHA-256 == one-shot across chunk sweep",
                     sha256_ok);

    const Bytes key = rng.bytes(32);
    crypto::HmacSha256 mac(key);
    mac.update(data);
    benchutil::check("incremental HMAC-SHA256 == one-shot",
                     mac.finish() == crypto::hmacSha256(key, data));

    const Bytes block = rng.bytes(64 * 1024);
    const double sha256_ms = bestHostMs(
        [&] {
            benchmark::DoNotOptimize(crypto::Sha256::digestBytes(block));
        },
        8);
    const double mb_s = (64.0 / 1024.0) / (sha256_ms / 1000.0);
    benchutil::rowSimOnly("SHA-256 64 KiB (host ms)", sha256_ms, "ms");
    benchutil::counterDelta("host_sha256_mb_s", mb_s);

    // One compression per call on a chained state, so the timing is
    // one dependent chain.
    constexpr int iters = 100000;
    std::array<std::uint32_t, 8> state256;
    std::copy_n(crypto::Sha256::initialState, 8, state256.begin());
    std::array<std::uint32_t, 5> state1;
    std::copy_n(crypto::Sha1::initialState, 5, state1.begin());
    const auto blockNs = [&](auto compress, std::uint32_t *state) {
        return bestHostMs([&] { compress(state, block.data()); }, iters) *
               1e6;
    };
    const double sha256_ns =
        blockNs(crypto::Sha256::compress, state256.data());
    const double portable_ns =
        blockNs(crypto::sha256CompressPortable, state256.data());
    const double sha1_ns = blockNs(crypto::Sha1::compress, state1.data());
    benchmark::DoNotOptimize(state256);
    benchmark::DoNotOptimize(state1);
    const char *kernel =
        crypto::sha256UsesShaNi() ? "SHA-NI" : "portable";
    benchutil::rowSimOnly(std::string("SHA-256 kernel (host): ") + kernel,
                          1.0, "");
    benchutil::rowSimOnly("SHA-256 block (host ns)", sha256_ns, "ns");
    benchutil::rowSimOnly("SHA-256 block, portable (host ns)", portable_ns,
                          "ns");
    benchutil::rowSimOnly("SHA-1 block (host ns)", sha1_ns, "ns");
    benchutil::counterDelta("host_ns_sha256_block", sha256_ns);
    benchutil::counterDelta("host_ns_sha256_block_portable", portable_ns);
    benchutil::counterDelta("host_ns_sha1_block", sha1_ns);
}

void
BM_RsaSignCrt(benchmark::State &state)
{
    const crypto::RsaPrivateKey &key = benchKey();
    const Bytes message(64, 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::rsaSignSha1(key, message));
}

void
BM_RsaSignPlain(benchmark::State &state)
{
    const crypto::RsaPrivateKey key = strippedKey();
    const Bytes message(64, 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::rsaSignSha1(key, message));
}

void
BM_Sha256Stream(benchmark::State &state)
{
    Rng rng(0x5eedc0de);
    const Bytes block = rng.bytes(64 * 1024);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::Sha256::digestBytes(block));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(block.size()));
}

} // namespace

BENCHMARK(BM_RsaSignCrt)->Unit(benchmark::kMillisecond)->Iterations(4);
BENCHMARK(BM_RsaSignPlain)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Sha256Stream)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    benchutil::stripJsonFlag(&argc, argv);
    rsaSection();
    montSection();
    shaSection();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return benchutil::writeJsonArtifact() ? 0 : 1;
}
