/**
 * @file
 * The multi-PAL execution service on the recommended hardware.
 *
 *   $ ./multipal_service
 *
 * Today's SKINIT freezes the whole machine per PAL (Section 4.2). On
 * the recommended hardware, the ExecutionService runs a mixed batch --
 * different priorities, a deadline, an attestation request -- across
 * the server's cores while legacy work keeps flowing, then audits every
 * report into a PCR through one pipelined TPM transport exchange.
 */

#include <cstdio>

#include "common/hex.hh"
#include "sea/service.hh"

using namespace mintcb;

namespace
{

sea::PalRequest
makeRequest(const std::string &name, Duration compute)
{
    sea::PalRequest req(
        sea::Pal::fromLogic(name, 4 * 1024, [](sea::PalContext &) {
            return okStatus();
        }));
    req.slicedCompute = compute;
    req.secureBody = [](rec::PalHooks &hooks,
                        const Bytes &input) -> Result<Bytes> {
        // Work with long-lived state under the PAL's sePCR identity.
        auto blob = hooks.seal(input.empty() ? asciiBytes("fresh")
                                             : input);
        if (!blob)
            return blob.error();
        auto state = hooks.unseal(*blob);
        if (!state)
            return state.error();
        return state.take();
    };
    return req;
}

} // namespace

int
main()
{
    auto machine =
        machine::Machine::forPlatform(machine::PlatformId::recServer);
    std::printf("Platform: %s\n\n", machine.spec().name.c_str());

    sea::ServiceConfig config;
    config.quantum = Duration::millis(2);
    config.legacyCpus = 4; // 4 cores legacy, 4 cores PAL slices
    sea::ExecutionService service(machine, config);

    // A mixed batch: bulk workers, a privileged job, and a small
    // latency-sensitive request with a deadline.
    for (int i = 0; i < 4; ++i) {
        auto id = service.submit(
            makeRequest("bulk-" + std::to_string(i),
                        Duration::millis(20)));
        if (!id.ok())
            return 1;
    }
    sea::PalRequest urgent = makeRequest("urgent", Duration::millis(2));
    urgent.priority = 5;
    urgent.deadline = machine.now() + Duration::seconds(2);
    urgent.wantQuote = true; // prove it ran, to an external verifier
    if (!service.submit(std::move(urgent)).ok())
        return 1;

    std::printf("Queued %zu requests; draining...\n\n",
                service.queueDepth());
    auto reports = service.drain();
    if (!reports.ok()) {
        std::fprintf(stderr, "drain failed: %s\n",
                     reports.error().str().c_str());
        return 1;
    }

    std::printf("%-8s %-8s %10s %12s %12s %7s %s\n", "id", "pal",
                "cpu", "queue-wait", "turnaround", "quoted",
                "deadline");
    // A request fails alone (its report carries the status), so the
    // drain succeeding is not enough: every report must be ok.
    int failed = 0;
    for (const sea::ExecutionReport &r : *reports) {
        std::printf("%-8llu %-8s %10u %12s %12s %7s %s\n",
                    static_cast<unsigned long long>(r.requestId),
                    r.palName.c_str(), r.cpu,
                    r.queueWait.str().c_str(), r.total.str().c_str(),
                    r.quoted ? "yes" : "-",
                    r.deadlineMet ? "met" : "MISSED");
        if (!r.status.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", r.palName.c_str(),
                         r.status.error().str().c_str());
            ++failed;
        }
    }

    std::printf("\n== Service metrics ==\n%s",
                service.metrics().str().c_str());
    return failed == 0 ? 0 : 1;
}
