/**
 * @file
 * SEA behavior on a TPM-less platform (the Tyan n3600R): the late
 * launch still works (Table 1 measured it), but everything that needs
 * sealed storage or attestation degrades explicitly, never silently.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "sea/attestation.hh"
#include "sea/palgen.hh"
#include "sea/session.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

class NoTpmTest : public ::testing::Test
{
  protected:
    NoTpmTest()
        : machine_(Machine::forPlatform(PlatformId::tyanN3600R)),
          driver_(machine_)
    {
    }

    Machine machine_;
    SeaDriver driver_;
};

TEST_F(NoTpmTest, PlainPalSessionStillRuns)
{
    const Pal pal = Pal::fromLogic("tpmless-pal", 4096,
                                   [](PalContext &ctx) {
                                       ctx.setOutput(asciiBytes("ok"));
                                       return okStatus();
                                   });
    auto report = driver_.run(PalRequest(pal));
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->status.ok());
    EXPECT_EQ(report->output, asciiBytes("ok"));
    // No TPM: no measurement evidence exists.
    const Bytes *pcr17 =
        report->evidence(Capability::pcr17Evidence, "pcr17");
    EXPECT_TRUE(pcr17 == nullptr || pcr17->empty());
    // And the launch is cheap (Table 1's Tyan row: bus transfer only).
    EXPECT_LT(report->cost(Capability::oneShot, "late_launch"),
              Duration::millis(2));
}

TEST_F(NoTpmTest, SealingPalFailsExplicitly)
{
    auto gen = runPalGen(driver_);
    ASSERT_FALSE(gen.ok());
}

TEST_F(NoTpmTest, AttestationUnavailable)
{
    // No TPM, so no AIK for the CA to certify.
    auto a = attestLaunch(machine_, 0, asciiBytes("n"), AikCertificate{});
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.error().code, Errc::unavailable);
}

TEST_F(NoTpmTest, QuoteMeasurementUnavailable)
{
    auto q = measureQuote(machine_);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.error().code, Errc::unavailable);
}

TEST_F(NoTpmTest, IsolationStillHoldsWithoutTpm)
{
    // The DEV protection is CPU/chipset functionality, not TPM
    // functionality: DMA is still blocked during the launch window.
    const Pal pal = Pal::fromLogic(
        "isolated-anyway", 4096, [this](PalContext &) -> Status {
            auto r = machine_.nic().dmaRead(SeaDriver::slbLoadAddress, 8);
            if (r.ok()) {
                return Error(Errc::integrityFailure,
                             "DMA reached the PAL during execution");
            }
            return okStatus();
        });
    auto report = driver_.run(PalRequest(pal));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->status.ok());
}

} // namespace
} // namespace mintcb::sea
