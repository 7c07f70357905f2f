/**
 * @file
 * Pal / PalContext unit tests.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "latelaunch/slb.hh"
#include "sea/pal.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

TEST(Pal, SlbImageHasHeaderAndRequestedSize)
{
    const Pal pal = Pal::fromLogic("sized", 4096, [](PalContext &) {
        return okStatus();
    });
    EXPECT_EQ(pal.slbBytes(), 4096u + latelaunch::slbHeaderBytes);
    const Bytes image = pal.slbImage();
    EXPECT_EQ(image.size(), pal.slbBytes());
    auto parsed = latelaunch::Slb::parse(image);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->code().size(), 4096u);
}

TEST(Pal, CodeSizeChangesIdentity)
{
    const Pal small = Pal::fromLogic("same-name", 1024,
                                     [](PalContext &) { return okStatus(); });
    const Pal large = Pal::fromLogic("same-name", 2048,
                                     [](PalContext &) { return okStatus(); });
    EXPECT_NE(small.measurement(), large.measurement());
}

TEST(Pal, BodyDoesNotAffectIdentity)
{
    // Identity is the measured code bytes; the simulation callback is
    // the *behavior model* of those bytes, not part of the measurement.
    const Pal a = Pal::fromLogic("fixed", 512,
                                 [](PalContext &) { return okStatus(); });
    const Pal b = Pal::fromLogic("fixed", 512, [](PalContext &ctx) {
        ctx.setOutput(asciiBytes("different behavior"));
        return okStatus();
    });
    EXPECT_EQ(a.measurement(), b.measurement());
}

TEST(Pal, CopiesShareOneMeasuredImage)
{
    // The identity is built once; a copy shares it rather than
    // rebuilding or rehashing the image.
    const Pal pal = Pal::fromLogic("shared", 1024,
                                   [](PalContext &) { return okStatus(); });
    const Pal copy = pal;
    EXPECT_EQ(&copy.slbImage(), &pal.slbImage());
    EXPECT_EQ(&copy.measurement(), &pal.measurement());
    EXPECT_EQ(pal.slbBytes(), pal.slbImage().size());
}

TEST(Pal, MaximumSizePalIsConstructible)
{
    const Pal big = Pal::fromLogic(
        "max", latelaunch::maxSlbBytes - latelaunch::slbHeaderBytes,
        [](PalContext &) { return okStatus(); });
    EXPECT_EQ(big.slbImage().size(), latelaunch::maxSlbBytes);
}

TEST(PalContext, ComputeChargesTheRightCore)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    PalContext ctx(m, 1, asciiBytes("in"));
    ctx.compute(Duration::millis(7));
    EXPECT_EQ(m.cpu(1).now().sinceEpoch(), Duration::millis(7));
    EXPECT_EQ(m.cpu(0).now(), TimePoint());
    EXPECT_EQ(ctx.cpuId(), 1u);
}

TEST(PalContext, InputAndOutputPlumbing)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    PalContext ctx(m, 0, asciiBytes("payload"));
    EXPECT_EQ(ctx.input(), asciiBytes("payload"));
    EXPECT_TRUE(ctx.output().empty());
    ctx.setOutput(asciiBytes("result"));
    EXPECT_EQ(ctx.output(), asciiBytes("result"));
}

TEST(PalContext, SealUnsealAccountingSeparatesPhases)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    // Put PCR 17 in a definite state so seal/unseal policies hold.
    ASSERT_TRUE(m.tpm().pcrs().resetDynamic(17).ok());
    PalContext ctx(m, 0, {});
    auto blob = ctx.sealState(asciiBytes("s"));
    ASSERT_TRUE(blob.ok());
    EXPECT_GT(ctx.sealTime(), Duration::zero());
    EXPECT_EQ(ctx.unsealTime(), Duration::zero());
    auto out = ctx.unsealState(*blob);
    ASSERT_TRUE(out.ok());
    EXPECT_GT(ctx.unsealTime(), Duration::millis(800)); // Broadcom
    EXPECT_EQ(*out, asciiBytes("s"));
}

} // namespace
} // namespace mintcb::sea
