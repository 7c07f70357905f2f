/**
 * @file
 * The native request path.
 */

#include "backend/nativerun.hh"

#include "backend/registry.hh"
#include "crypto/sha1.hh"

namespace mintcb::backend
{

rec::PalProgram
nativeProgram(machine::Machine &machine, const sea::PalRequest &request,
              Duration default_compute, NativeSlot &slot)
{
    slot.compute = request.slicedCompute > Duration::zero()
                       ? request.slicedCompute
                       : default_compute;

    rec::PalProgram prog(request.pal);
    prog.dataPages = request.dataPages;
    prog.totalCompute = slot.compute;
    prog.priority = request.priority;
    prog.deadline = request.deadline;
    prog.wantQuote = request.wantQuote;

    // First slice: bind the input to the PAL's attested identity.
    prog.onStart = [&machine, &slot,
                    &request](rec::PalHooks &hooks) -> Status {
        slot.started = true;
        slot.startedAt = machine.cpu(hooks.cpu()).now();
        return hooks.extend(crypto::Sha1::digestBytes(request.input));
    };

    // Final slice: the application body runs inside the PAL's
    // protections, then the output joins the sePCR transcript.
    prog.onFinish = [&slot, &request](rec::PalHooks &hooks) -> Status {
        if (request.secureBody) {
            auto out_bytes = request.secureBody(hooks, request.input);
            if (!out_bytes)
                return out_bytes.error();
            slot.output = out_bytes.take();
        }
        return hooks.extend(crypto::Sha1::digestBytes(slot.output));
    };
    return prog;
}

sea::ExecutionReport
nativeReport(const NativeSlot &slot, const rec::PalCompletion &done)
{
    sea::ExecutionReport r;
    r.palName = done.name;
    r.backend = defaultBackendName;
    r.status = done.result;
    r.output = slot.output;
    r.palMeasurement = done.measurement;
    r.quote = done.quote;
    r.quoted = done.quoted;
    r.phases.compute = slot.compute;
    sea::ReportSection &pre = r.section(sea::Capability::preemptible);
    pre.addCount("slaunches", done.launches);
    pre.addCount("yields", done.yields);
    r.submittedAt = slot.submittedAt;
    r.startedAt =
        slot.started ? slot.startedAt : TimePoint(done.finishedAt);
    r.finishedAt = TimePoint(done.finishedAt);
    r.queueWait = r.startedAt - r.submittedAt;
    r.total = r.finishedAt - r.startedAt;
    r.launches = done.launches;
    r.yields = done.yields;
    r.cpu = done.cpu;
    r.deadlineMet = done.deadlineMet;
    return r;
}

} // namespace mintcb::backend
