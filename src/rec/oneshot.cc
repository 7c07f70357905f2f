/**
 * @file
 * One-shot runner implementation.
 */

#include "rec/oneshot.hh"

namespace mintcb::rec
{

Result<OneShotReport>
runOneShot(SecureExecutive &exec, const sea::Pal &pal,
           const OneShotBody &body, const OneShotOptions &options)
{
    machine::Machine &m = exec.machine();
    auto secb = allocateSecb(m, pal, options.base,
                             options.dataPages, Duration::zero());
    if (!secb)
        return secb.error();

    machine::Cpu &core = m.cpu(options.cpu);
    const TimePoint start = core.now();

    auto launch = exec.slaunch(options.cpu, *secb);
    if (!launch)
        return launch.error();

    OneShotReport report;
    report.measurement = launch->measurement;
    report.palMeasurement = pal.measurement();

    PalHooks hooks(exec, *secb, options.cpu);
    auto output = body(hooks);

    // The PAL erases its memory before exiting regardless of outcome.
    for (PageNum p : secb->pages)
        m.memory().zeroPage(p);

    if (!output) {
        // Abnormal completion: yield then let the OS SKILL it.
        exec.syield(*secb);
        exec.skill(*secb);
        return output.error();
    }
    report.output = output.take();

    if (auto s = exec.sfree(*secb, /*from_pal=*/true); !s.ok())
        return s.error();

    if (secb->sePcr) {
        if (options.quote) {
            m.tpmAs(options.cpu);
            auto quote =
                exec.sePcrs().quote(*secb->sePcr, m.rng().bytes(20));
            if (quote) {
                report.quote = quote.take();
                report.quoted = true;
            }
        }
        exec.sePcrs().release(*secb->sePcr);
    }

    report.total = core.now() - start;
    return report;
}

} // namespace mintcb::rec
