/**
 * @file
 * Quickstart: run a minimal-TCB PAL on a simulated HP dc5750, then prove
 * to an external verifier that it really ran.
 *
 *   $ ./quickstart
 *
 * Walks the whole SEA pipeline from the paper: suspend the OS, SKINIT,
 * execute the PAL in isolation, resume, attest, verify -- printing the
 * latency of each phase (compare with the paper's Figure 2).
 */

#include <cstdio>

#include "common/hex.hh"
#include "machine/platformstats.hh"
#include "sea/attestation.hh"
#include "sea/session.hh"

using namespace mintcb;

int
main()
{
    // 1. A simulated 2007-era machine: 2.2 GHz AMD X2 + Broadcom TPM.
    auto machine =
        machine::Machine::forPlatform(machine::PlatformId::hpDc5750);
    std::printf("Platform: %s\n", machine.spec().name.c_str());

    // 2. A Piece of Application Logic: the only code we have to trust.
    const sea::Pal pal = sea::Pal::fromLogic(
        "quickstart-pal", 4 * 1024, [](sea::PalContext &ctx) {
            // Security-sensitive work happens here, isolated from the
            // OS, other cores, and DMA devices.
            ctx.compute(Duration::micros(100));
            ctx.setOutput(asciiBytes("hello from the minimal TCB"));
            return okStatus();
        });
    std::printf("PAL measurement: %s\n",
                toHex(pal.measurement()).c_str());

    // 3. Run it under SEA (Flicker-style session) via the unified
    //    request/response API: describe the work as a PalRequest, get an
    //    ExecutionReport back.
    sea::SeaDriver driver(machine);
    sea::PalRequest request(pal);
    auto session = driver.run(request);
    if (!session.ok()) {
        std::fprintf(stderr, "session failed: %s\n",
                     session.error().str().c_str());
        return 1;
    }
    if (!session->status.ok()) {
        std::fprintf(stderr, "PAL failed: %s\n",
                     session->status.error().str().c_str());
        return 1;
    }
    std::printf("PAL output:      \"%.*s\"\n",
                static_cast<int>(session->output.size()),
                reinterpret_cast<const char *>(session->output.data()));
    std::printf("\nSession phase breakdown (cf. paper Figure 2):\n");
    std::printf("  suspend OS   : %s\n",
                session->cost(sea::Capability::oneShot, "suspend_os")
                    .str()
                    .c_str());
    std::printf("  late launch  : %s\n",
                session->cost(sea::Capability::oneShot, "late_launch")
                    .str()
                    .c_str());
    std::printf("  PAL compute  : %s\n",
                session->phases.compute.str().c_str());
    std::printf("  resume OS    : %s\n",
                session->cost(sea::Capability::oneShot, "resume_os")
                    .str()
                    .c_str());
    std::printf("  TOTAL        : %s\n", session->total.str().c_str());

    // 4. Attest: quote PCR 17 for an external verifier.
    const Bytes nonce = machine.rng().bytes(20);

    // Re-launch so the identity is live in PCR 17 when we quote.
    latelaunch::LateLaunch launcher(machine);
    machine.writeAs(0, 0x10000, pal.slbImage());
    launcher.invoke(0, 0x10000);
    // The Privacy CA certifies the platform's AIK once; every quote
    // carries that certificate.
    const sea::AikCertificate aikCert = sea::PrivacyCa::instance().issue(
        machine.tpm().aikPublic(), "quickstart");
    auto attestation = sea::attestLaunch(machine, 0, nonce, aikCert);
    launcher.resumeOtherCpus();
    if (!attestation.ok()) {
        std::fprintf(stderr, "attestation failed: %s\n",
                     attestation.error().str().c_str());
        return 1;
    }

    // 5. The verifier trusts this PAL's measurement and nothing else.
    sea::Verifier verifier;
    verifier.trustPal(pal);
    auto verdict = verifier.verify(*attestation, nonce);
    if (!verdict.ok()) {
        std::fprintf(stderr, "verification failed: %s\n",
                     verdict.error().str().c_str());
        return 1;
    }
    std::printf("\nVerifier accepted the launch of \"%s\".\n",
                verdict->palName.c_str());
    std::printf("\n%s", machine::statsReport(machine).c_str());
    return 0;
}
