/**
 * @file
 * The two SHA-256 compression kernels against each other: the FIPS
 * 180-4 examples through each kernel alone, seeded random (state,
 * block) pairs through both, and the once-per-process dispatch. Only
 * the SHA-NI half skips, and only on a CPU without the SHA extensions.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/hex.hh"
#include "common/rng.hh"
#include "crypto/sha256.hh"

namespace mintcb::crypto
{
namespace
{

using Kernel = void (*)(std::uint32_t *, const std::uint8_t *);
using State = std::array<std::uint32_t, 8>;

/** SHA-256 driven through @p K alone, bypassing the dispatch. */
template <Kernel K>
class KernelSha256 : public MdHash<KernelSha256<K>, 8>
{
  public:
    static constexpr const std::uint32_t *initialState =
        Sha256::initialState;

    static void compress(std::uint32_t *state, const std::uint8_t *block)
    {
        K(state, block);
    }
};

/** The FIPS 180-4 examples of sha256_test.cc, through kernel @p K. */
template <Kernel K>
void
expectFipsVectors()
{
    const auto hex = [](const std::string &msg) {
        return toHex(KernelSha256<K>::digestBytes(asciiBytes(msg)));
    };
    EXPECT_EQ(
        hex(""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        hex("abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    KernelSha256<K> ctx;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(
        toHex(toBytes(ctx.finish())),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

State
randomState(Rng &rng)
{
    State s;
    for (std::uint32_t &word : s)
        word = static_cast<std::uint32_t>(rng.next());
    return s;
}

TEST(Sha256Kernel, PortableKernelPassesTheFipsVectors)
{
    expectFipsVectors<sha256CompressPortable>();
}

#if defined(__x86_64__)

TEST(Sha256Kernel, ShaNiKernelPassesTheFipsVectors)
{
    if (!shaNiAvailable())
        GTEST_SKIP() << "CPUID reports no SHA extensions";
    expectFipsVectors<sha256CompressShaNi>();
}

TEST(Sha256Kernel, ShaNiAgreesWithPortableOnRandomPairs)
{
    if (!shaNiAvailable())
        GTEST_SKIP() << "CPUID reports no SHA extensions";
    Rng rng(256);
    for (int i = 0; i < 10000; ++i) {
        const State start = randomState(rng);
        const Bytes block = rng.bytes(64);
        State portable = start;
        State shaNi = start;
        sha256CompressPortable(portable.data(), block.data());
        sha256CompressShaNi(shaNi.data(), block.data());
        EXPECT_EQ(shaNi, portable) << "pair " << i;
        if (shaNi != portable)
            break; // one failing pair says enough
    }
}

#endif

/** Sha256::compress runs the SHA-NI kernel exactly when CPUID offers
 *  it, counts one block per call on either kernel, and matches the
 *  portable reference. */
TEST(Sha256Kernel, DispatchFollowsCpuid)
{
    EXPECT_EQ(sha256UsesShaNi(), shaNiAvailable());
#if !defined(__x86_64__)
    EXPECT_FALSE(shaNiAvailable());
#endif
    Rng rng(28);
    const State start = randomState(rng);
    const Bytes block = rng.bytes(64);
    State dispatched = start;
    State portable = start;
    const std::uint64_t before = hashBlockCounts().sha256;
    Sha256::compress(dispatched.data(), block.data());
    EXPECT_EQ(hashBlockCounts().sha256 - before, 1u);
    sha256CompressPortable(portable.data(), block.data());
    EXPECT_EQ(dispatched, portable);
}

} // namespace
} // namespace mintcb::crypto
