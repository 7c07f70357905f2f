/**
 * @file
 * The rec-service backend: a standalone single-request SLAUNCH campaign.
 *
 * Inside ExecutionService this execution model is the *native* path --
 * submitted requests with backend "" or "rec-service" join the shared
 * scheduler campaign and its persistent executive. This standalone
 * adapter exists for direct registry users (the backend-matrix bench,
 * one-off comparisons): it brings up a fresh executive on the given
 * machine and runs one program to completion under the preemption
 * timer, so all five zoo members answer run() uniformly. The request
 * -> program -> report mapping is the service's own (nativerun.hh);
 * this adapter adds only the phase split and its extra sections.
 */

#include "backend/backends.hh"

#include <algorithm>

#include "backend/nativerun.hh"
#include "backend/registry.hh"

namespace mintcb::backend
{

namespace
{

class RecServiceBackend final : public Backend
{
  public:
    const BackendInfo &
    info() const override
    {
        static const BackendInfo inf{
            defaultBackendName,
            "scheduler TEE",
            "SLAUNCH preemptible slices under the recommended-hardware "
            "executive; sePCR identity + quote (paper Sections 5-6)",
            {sea::Capability::preemptible, sea::Capability::sealedState,
             sea::Capability::sePcr, sea::Capability::attestation,
             sea::Capability::ioBinding},
        };
        return inf;
    }

    Result<sea::ExecutionReport>
    run(machine::Machine &machine, const sea::PalRequest &request,
        CpuId cpu) const override
    {
        rec::SecureExecutive exec(machine, /*sepcr_count=*/8);
        // One CPU stays legacy (the "OS core"); the campaign schedules
        // the PAL over the rest, matching the service defaults.
        rec::OsScheduler sched(exec, Duration::millis(1),
                               /*legacy_cpus=*/1);

        NativeSlot slot;
        slot.submittedAt = machine.now();
        if (auto idx = sched.add(nativeProgram(machine, request,
                                               Duration::millis(1), slot));
            !idx) {
            return idx.error();
        }

        auto stats = sched.runAll();
        if (!stats)
            return stats.error();
        if (stats->completions.empty())
            return Error(Errc::failedPrecondition,
                         "campaign finished without a completion");
        const rec::PalCompletion &done = stats->completions.front();
        sea::ExecutionReport report = nativeReport(slot, done);

        // Canonical phases. The campaign interleaves them, so the
        // breakdown is reconstructed: transitions are the measured
        // context-switch time, attestation is the post-SFREE tail
        // (sePCR quote), and launch is the remaining non-compute time
        // (first SLAUNCH measurement stream + state init).
        report.phases.transition = stats->contextSwitchTime;
        const Duration tail = machine.now() - report.finishedAt;
        report.phases.attestation =
            done.quoted ? tail : Duration::zero();
        const Duration residual = report.total - slot.compute -
                                  stats->contextSwitchTime;
        report.phases.launch = std::max(Duration::zero(), residual);

        report.section(sea::Capability::preemptible)
            .addCount("preemptions", done.preemptions);
        report.section(sea::Capability::sePcr)
            .addCount("sepcr_slots", 8);
        if (done.quoted) {
            report.section(sea::Capability::attestation)
                .addCost("sepcr_quote", report.phases.attestation);
        }
        (void)cpu;
        return report;
    }
};

} // namespace

std::unique_ptr<Backend>
makeRecService()
{
    return std::make_unique<RecServiceBackend>();
}

} // namespace mintcb::backend
