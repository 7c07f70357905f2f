/**
 * @file
 * Parameterized sweep over every platform preset: construction,
 * component sanity, reboot, and timing-model wiring.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace mintcb::machine
{
namespace
{

class PlatformSweep : public ::testing::TestWithParam<PlatformId>
{
};

TEST_P(PlatformSweep, SpecIsSelfConsistent)
{
    const PlatformSpec spec = PlatformSpec::forPlatform(GetParam());
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GE(spec.cpuCount, 2u);
    EXPECT_GT(spec.freqGhz, 1.0);
    EXPECT_LT(spec.freqGhz, 4.0);
    EXPECT_GE(spec.memoryPages, 1024u);
    EXPECT_EQ(spec.maxSlbBytes, 64u * 1024);
    EXPECT_GT(spec.cpuStateInit, Duration::zero());
    EXPECT_LT(spec.cpuStateInit, Duration::micros(11)); // "< 10 us"
    if (spec.cpuVendor == CpuVendor::intel) {
        EXPECT_GT(spec.acmodBytes, 0u);
        EXPECT_GT(spec.acmodSigVerify, Duration::zero());
    }
    // Every platform can hash on-CPU (footnote 4 / ACMod phase 2).
    EXPECT_GT(spec.cpuHashPerByte, Duration::zero());
}

TEST_P(PlatformSweep, MachineAssembles)
{
    Machine m = Machine::forPlatform(GetParam());
    EXPECT_EQ(m.cpuCount(), m.spec().cpuCount);
    EXPECT_EQ(m.hasTpm(), m.spec().hasTpm);
    if (m.hasTpm()) {
        EXPECT_EQ(m.tpm().vendor(), m.spec().tpmVendor);
    }
    for (CpuId c = 0; c < m.cpuCount(); ++c) {
        EXPECT_EQ(m.cpu(c).id(), c);
        EXPECT_EQ(m.cpu(c).now(), TimePoint());
        EXPECT_EQ(m.cpu(c).ring(), 0);
    }
}

TEST_P(PlatformSweep, MemoryIsUsableEverywhere)
{
    Machine m = Machine::forPlatform(GetParam());
    const PhysAddr last_page =
        pageBase(m.memory().pages() - 1);
    EXPECT_TRUE(m.writeAs(0, last_page, {0xaa}).ok());
    EXPECT_EQ(*m.readAs(m.cpuCount() - 1, last_page, 1), Bytes{0xaa});
}

TEST_P(PlatformSweep, RebootIsIdempotentAndComplete)
{
    Machine m = Machine::forPlatform(GetParam());
    m.cpu(0).advance(Duration::seconds(1));
    m.cpu(0).setRing(3);
    m.cpu(0).setInterruptsEnabled(false);
    ASSERT_TRUE(m.memctrl().devProtect(1, 1).ok());
    m.reboot();
    m.reboot();
    EXPECT_EQ(m.cpu(0).now(), TimePoint());
    EXPECT_EQ(m.cpu(0).ring(), 0);
    EXPECT_TRUE(m.cpu(0).interruptsEnabled());
    EXPECT_FALSE(m.memctrl().devProtected(1));
}

TEST_P(PlatformSweep, VmTimingMatchesCpuVendor)
{
    const PlatformSpec spec = PlatformSpec::forPlatform(GetParam());
    const VmSwitchTiming expected =
        VmSwitchTiming::forVendor(spec.cpuVendor);
    EXPECT_EQ(spec.vmTiming.enterMean, expected.enterMean);
    EXPECT_EQ(spec.vmTiming.exitMean, expected.exitMean);
}

TEST_P(PlatformSweep, DistinctSeedsDistinctTpmIdentity)
{
    const PlatformSpec spec = PlatformSpec::forPlatform(GetParam());
    if (!spec.hasTpm)
        GTEST_SKIP() << "platform has no TPM";
    Machine a = Machine::forPlatform(GetParam(), 1);
    Machine b = Machine::forPlatform(GetParam(), 2);
    EXPECT_NE(a.tpm().aikPublic().n, b.tpm().aikPublic().n);
    EXPECT_NE(a.tpm().srkPublic().n, b.tpm().srkPublic().n);
    // And the AIK differs from the SRK within one TPM.
    EXPECT_NE(a.tpm().aikPublic().n, a.tpm().srkPublic().n);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, PlatformSweep,
    ::testing::Values(PlatformId::hpDc5750, PlatformId::tyanN3600R,
                      PlatformId::intelTep, PlatformId::lenovoT60,
                      PlatformId::amdInfineonWs, PlatformId::recTestbed,
                      PlatformId::recServer),
    [](const ::testing::TestParamInfo<PlatformId> &info) {
        switch (info.param) {
          case PlatformId::hpDc5750:
            return std::string("hpDc5750");
          case PlatformId::tyanN3600R:
            return std::string("tyanN3600R");
          case PlatformId::intelTep:
            return std::string("intelTep");
          case PlatformId::lenovoT60:
            return std::string("lenovoT60");
          case PlatformId::amdInfineonWs:
            return std::string("amdInfineonWs");
          case PlatformId::recTestbed:
            return std::string("recTestbed");
          case PlatformId::recServer:
            return std::string("recServer");
        }
        return std::string("unknown");
    });

} // namespace
} // namespace mintcb::machine
