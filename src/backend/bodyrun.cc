/**
 * @file
 * Shared PAL-body execution.
 */

#include "backend/bodyrun.hh"

#include "sea/pal.hh"

namespace mintcb::backend
{

BodyRun
runPalBody(machine::Machine &machine, const sea::PalRequest &request,
           CpuId cpu)
{
    BodyRun out;
    sea::PalContext ctx(machine, cpu, request.input);
    machine::Cpu &core = machine.cpu(cpu);
    const TimePoint body_start = core.now();
    out.status = request.pal.body()(ctx);
    const Duration body_total = core.now() - body_start;
    out.seal = ctx.sealTime();
    out.unseal = ctx.unsealTime();
    out.compute = body_total - out.seal - out.unseal;
    out.output = ctx.output();
    return out;
}

} // namespace mintcb::backend
