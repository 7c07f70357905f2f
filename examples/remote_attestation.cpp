/**
 * @file
 * Scenario: remote attestation end to end (paper Section 2.1.1).
 *
 * A remote verifier wants proof that the platform really late-launched
 * the PAL it claims to run. The walkthrough shows each trust link in
 * order -- the Privacy CA endorsing the AIK, the quote over a fresh
 * nonce, the PCR 17 whitelist decision, and the attacks each link
 * stops (stale quote, replayed quote, software-forged identity) --
 * then runs the same protocol over TCP against a live mintcb-gate
 * instance, where the handshake is mutual.
 */

#include <cstdio>

#include "common/hex.hh"
#include "latelaunch/latelaunch.hh"
#include "net/client.hh"
#include "net/gateway.hh"

using namespace mintcb;

int
main()
{
    // ---- The platform side: late-launch a PAL worth attesting. ----
    auto machine =
        machine::Machine::forPlatform(machine::PlatformId::hpDc5750);
    sea::Pal pal = sea::Pal::fromLogic(
        "sealed-audit-pal", 4 * 1024, [](sea::PalContext &ctx) {
            ctx.setOutput(asciiBytes("audit complete"));
            return okStatus();
        });
    latelaunch::LateLaunch launcher(machine);
    if (!machine.writeAs(0, 0x10000, pal.slbImage()).ok() ||
        !launcher.invoke(0, 0x10000).ok()) {
        std::fprintf(stderr, "late launch failed\n");
        return 1;
    }
    std::printf("platform: late-launched '%s'; PCR 17 now carries its "
                "launch identity\n",
                pal.name().c_str());

    // ---- The verifier side: challenge with a fresh nonce. ----
    // The Privacy CA certified the platform's AIK once, at
    // provisioning; every quote carries that certificate.
    const sea::AikCertificate aikCert = sea::PrivacyCa::instance().issue(
        machine.tpm().aikPublic(), "hp-dc5750");
    const Bytes nonce = asciiBytes("verifier-challenge-001");
    auto attestation = sea::attestLaunch(machine, 0, nonce, aikCert);
    launcher.resumeOtherCpus();
    if (!attestation.ok()) {
        std::fprintf(stderr, "quote failed: %s\n",
                     attestation.error().message.c_str());
        return 1;
    }
    std::printf("platform: quoted PCR 17 over the verifier's nonce; "
                "AIK certificate issued by the Privacy CA\n");

    sea::Verifier verifier;
    verifier.trustPal(pal); // the whitelist: measurements, not vendors
    auto verdict = verifier.verifyFresh(*attestation, nonce);
    if (!verdict.ok()) {
        std::fprintf(stderr, "verification failed: %s\n",
                     verdict.error().message.c_str());
        return 1;
    }
    std::printf("verifier: ACCEPTED -- certificate chain, signature, "
                "nonce, and whitelist all check out (PAL '%s')\n\n",
                verdict->palName.c_str());

    // ---- The attacks the protocol refuses. ----
    auto stale = verifier.verify(*attestation, asciiBytes("new-nonce"));
    std::printf("stale quote (wrong nonce):    %s\n",
                stale.ok() ? "ACCEPTED (BUG)" : "refused");
    auto replay = verifier.verifyFresh(*attestation, nonce);
    std::printf("replayed quote (seen nonce):  %s\n",
                replay.ok() ? "ACCEPTED (BUG)" : "refused");
    if (stale.ok() || replay.ok())
        return 1;

    // ---- The same protocol, mutual, over TCP. ----
    std::printf("\nstarting mintcb-gate on an ephemeral port...\n");
    auto gateMachine =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService service(gateMachine);
    net::PalRegistry registry;
    registry.addEcho("echo");
    net::Gateway gateway(gateMachine, service, registry, {});
    gateway.trustClientPal(net::AttestedIdentity::clientPal());
    if (auto s = gateway.start(); !s.ok()) {
        std::fprintf(stderr, "gateway: %s\n", s.error().message.c_str());
        return 1;
    }

    net::GatewayClient client{net::ClientConfig{}};
    if (auto s = client.connect(gateway.port()); !s.ok()) {
        std::fprintf(stderr, "handshake: %s\n",
                     s.error().message.c_str());
        return 1;
    }
    std::printf("client: verified gateway attestation (subject '%s'), "
                "presented its own, session %llu admitted\n",
                client.gatewaySubject().c_str(),
                static_cast<unsigned long long>(client.sessionId()));

    net::WireRequest request;
    request.sequence = 1;
    request.palName = "echo";
    request.input = asciiBytes("over-the-wire payload");
    auto report = client.call(request);
    if (!report.ok()) {
        std::fprintf(stderr, "call: %s\n",
                     report.error().message.c_str());
        return 1;
    }
    auto summary = net::summarizeReport(report->report);
    std::printf("client: report received, output %s the input\n",
                summary.ok() && summary->output == request.input
                    ? "matches"
                    : "DOES NOT MATCH");
    client.bye();
    gateway.stop();

    std::printf("\nEvery trust decision above rested on one hardware "
                "fact: only a genuine late launch can put a PAL's "
                "measurement into PCR 17.\n");
    return 0;
}
