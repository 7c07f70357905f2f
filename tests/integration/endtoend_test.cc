/**
 * @file
 * Cross-module integration tests: complete workflows spanning the TPM,
 * late launch, SEA, attestation, the recommended architecture, and the
 * application PALs.
 */

#include <gtest/gtest.h>

#include <deque>

#include "apps/ca_pal.hh"
#include "apps/rootkit_pal.hh"
#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/sha1.hh"
#include "crypto/keycache.hh"
#include "rec/scheduler.hh"
#include "sea/attestation.hh"
#include "sea/measuredboot.hh"
#include "sea/palgen.hh"
#include "verify/race.hh"

namespace mintcb
{
namespace
{

using machine::Machine;
using machine::PlatformId;

TEST(EndToEnd, CaServiceWithRemoteVerification)
{
    // A relying party will only accept certificates from a CA whose PAL
    // provably ran under a late launch.
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    sea::SeaDriver driver(m);
    apps::CertificateAuthority ca(driver, 512);
    ASSERT_TRUE(ca.initialize().ok());

    // The CA operator attests the signing PAL's execution. Drive an
    // actual launch of the sign-flow PAL and quote while live.
    apps::CertificateRequest req;
    req.subject = "relying.example";
    req.subjectPublicKey =
        crypto::cachedKey("e2e-subject", 512).pub.encode();
    auto cert = ca.sign(req);
    ASSERT_TRUE(cert.ok());

    // PCR 17 has been capped post-exit; a fresh verification launch:
    const Bytes nonce = m.rng().bytes(20);
    latelaunch::LateLaunch launcher(m);
    const sea::Pal identity_probe = sea::Pal::fromLogic(
        "certificate-authority-pal", 12 * 1024,
        [](sea::PalContext &) { return okStatus(); });
    ASSERT_TRUE(m.writeAs(0, 0x10000, identity_probe.slbImage()).ok());
    ASSERT_TRUE(launcher.invoke(0, 0x10000).ok());
    auto attestation = sea::attestLaunch(
        m, 0, nonce,
        sea::PrivacyCa::instance().issue(m.tpm().aikPublic(), "ca-host"));
    launcher.resumeOtherCpus();
    ASSERT_TRUE(attestation.ok());

    sea::Verifier verifier;
    verifier.trustPal(identity_probe);
    auto verdict = verifier.verify(*attestation, nonce);
    ASSERT_TRUE(verdict.ok());

    // And the certificate itself checks out.
    EXPECT_TRUE(apps::verifyCertificate(ca.publicKey(), *cert));
}

TEST(EndToEnd, SealedStateIsMachineBound)
{
    // State sealed by a PAL on machine A is useless on machine B: the
    // SRKs differ (TPM identity), so unseal fails inside the PAL.
    Machine a = Machine::forPlatform(PlatformId::hpDc5750, /*seed=*/1);
    Machine b = Machine::forPlatform(PlatformId::hpDc5750, /*seed=*/2);
    sea::SeaDriver driver_a(a), driver_b(b);

    auto gen = sea::runPalGen(driver_a);
    ASSERT_TRUE(gen.ok());
    auto use_elsewhere = sea::runPalUse(driver_b, gen->blob, false);
    ASSERT_FALSE(use_elsewhere.ok());
}

TEST(EndToEnd, TrustedBootAndSeaCompose)
{
    // Measured boot covers the legacy stack in static PCRs; SEA covers
    // the PAL in PCR 17. One quote can cover both worlds.
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    sea::MeasuredBoot boot(m);
    ASSERT_TRUE(boot.bootTypicalStack().ok());

    const sea::Pal pal = sea::Pal::fromLogic(
        "composed-pal", 2048, [](sea::PalContext &) { return okStatus(); });
    latelaunch::LateLaunch launcher(m);
    ASSERT_TRUE(m.writeAs(0, 0x10000, pal.slbImage()).ok());
    ASSERT_TRUE(launcher.invoke(0, 0x10000).ok());

    const Bytes nonce = asciiBytes("composed");
    auto selection = boot.coveredPcrs();
    selection.push_back(tpm::dynamicLaunchPcr);
    auto quote = m.tpmAs(0).quote(nonce, selection);
    launcher.resumeOtherCpus();
    ASSERT_TRUE(quote.ok());
    EXPECT_TRUE(
        tpm::verifyQuote(m.tpm().aikPublic(), *quote, nonce).ok());
    // The static PCRs replay from the log; PCR 17 is the PAL identity.
    const auto replayed = boot.log().replay();
    for (std::size_t i = 0; i < quote->selection.size(); ++i) {
        if (quote->selection[i] == tpm::dynamicLaunchPcr) {
            EXPECT_EQ(quote->values[i], pal.expectedPcr17());
        } else {
            EXPECT_EQ(quote->values[i],
                      replayed.at(quote->selection[i]));
        }
    }
}

TEST(EndToEnd, RecArchitectureQuoteVerifiesAgainstPalIdentity)
{
    // A PAL run under SLAUNCH produces a sePCR quote an external party
    // can check against the same whitelist construction as PCR 17.
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    rec::SecureExecutive exec(m, 4);
    verify::HbRaceDetector detector(m.cpuCount());
    detector.attach(m.memctrl());
    detector.attach(exec);
    rec::OsScheduler sched(exec, Duration::millis(1));
    sched.setQuoteOnExit(true);

    const sea::Pal expected = sea::Pal::fromLogic(
        "attested-rec-pal", 4096,
        [](sea::PalContext &) { return okStatus(); });
    rec::PalProgram prog(expected);
    prog.totalCompute = Duration::millis(3);
    ASSERT_TRUE(sched.add(prog).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->completions[0].quoted);

    const tpm::TpmQuote &quote = stats->completions[0].quote;
    ASSERT_TRUE(
        tpm::verifyQuote(m.tpm().aikPublic(), quote, quote.nonce)
            .ok());

    // Whitelist check: the quoted sePCR value must equal the launch
    // identity of the expected PAL image.
    Bytes zero(20, 0x00);
    ByteWriter w;
    w.raw(zero);
    w.raw(expected.measurement());
    EXPECT_EQ(quote.values[0], crypto::Sha1::digestBytes(w.bytes()));
    EXPECT_TRUE(detector.races().empty()) << detector.str();
}

TEST(EndToEnd, RootkitDetectorSurvivesConcurrentSeaSessions)
{
    // Interleave detector scans with unrelated PAL sessions: sealed
    // baselines stay usable because each PAL's identity is independent.
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    sea::SeaDriver driver(m);

    constexpr PhysAddr kernel = 0x300000;
    Bytes text(32 * 1024, 0xAB);
    ASSERT_TRUE(m.writeAs(0, kernel, text).ok());
    apps::RootkitDetector detector(driver, kernel, text.size());
    ASSERT_TRUE(detector.baseline().ok());

    auto gen = sea::runPalGen(driver); // unrelated PAL in between
    ASSERT_TRUE(gen.ok());
    EXPECT_TRUE(detector.scan()->clean);
    auto use = sea::runPalUse(driver, gen->blob, false);
    ASSERT_TRUE(use.ok());

    ASSERT_TRUE(m.writeAs(0, kernel + 5, {0x00}).ok());
    EXPECT_FALSE(detector.scan()->clean);
}

TEST(EndToEnd, SimulationIsDeterministic)
{
    // Two runs with identical seeds produce bit-identical timing and
    // output -- the property every experiment in EXPERIMENTS.md relies
    // on.
    auto run = [] {
        Machine m = Machine::forPlatform(PlatformId::hpDc5750, 1234);
        sea::SeaDriver driver(m);
        auto gen = sea::runPalGen(driver);
        auto use = sea::runPalUse(driver, gen->blob, true);
        return std::make_pair(use->session.total.ticks(),
                              toHex(use->session.output));
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

TEST(EndToEnd, RebootInvalidatesEverythingVolatile)
{
    Machine m = Machine::forPlatform(PlatformId::hpDc5750);
    sea::SeaDriver driver(m);
    auto gen = sea::runPalGen(driver);
    ASSERT_TRUE(gen.ok());

    m.reboot();
    // Dynamic PCRs read -1: any verifier sees "no launch since reboot".
    EXPECT_EQ(*m.tpm().pcrRead(17), Bytes(20, 0xff));
    // But sealed state survives reboot by design (sealed storage is
    // persistent): a fresh launch of the same PAL can still unseal.
    auto use = sea::runPalUse(driver, gen->blob, false);
    EXPECT_TRUE(use.ok());
}

} // namespace
} // namespace mintcb
