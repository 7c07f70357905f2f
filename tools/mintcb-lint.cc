/**
 * @file
 * mintcb-lint: replay recorded execution traces against the platform's
 * temporal properties.
 *
 * Modes:
 *
 *   mintcb-lint <trace-file>    decode a serialized ExecutionTrace and
 *                               check it; exit 1 if any property fails.
 *   mintcb-lint --record <file> run the built-in service workload,
 *                               record its trace, and write it to
 *                               <file>; exit 1 if the trace fails the
 *                               lint or the race detector's verdict.
 *   mintcb-lint --selftest      run the built-in workload in-process,
 *                               lint trace + metrics + races, then
 *                               verify that seeded-bad synthetic traces
 *                               are flagged; exit 0 only if all pass.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "common/file.hh"
#include "sea/service.hh"
#include "verify/race.hh"
#include "verify/temporal.hh"
#include "verify/trace.hh"

namespace
{

using namespace mintcb;

/** What the race detector saw of the built-in workload. */
struct RaceSummary
{
    std::string report;
    std::size_t races = 0;
    std::uint64_t syncEvents = 0;
};

/** A small but representative workload: two drain cycles (so the
 *  transport session is opened once and resumed once) over enough PALs
 *  to force preemption-timer yields and resumes. One run feeds both the
 *  trace recorder and the race detector. */
Status
runWorkload(verify::ExecutionTrace &trace, RaceSummary &raceOut,
            sea::ServiceMetrics &metricsOut)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);

    verify::TraceRecorder recorder(trace);
    recorder.attach(svc);
    verify::HbRaceDetector detector(m.cpuCount());
    detector.attach(m.memctrl());
    detector.attach(svc.executive());

    for (int cycle = 0; cycle < 2; ++cycle) {
        for (int i = 0; i < 4; ++i) {
            const std::string name = "lint-pal-" + std::to_string(cycle) +
                                     "-" + std::to_string(i);
            sea::PalRequest req(sea::Pal::fromLogic(
                name, 4 * 1024,
                [](sea::PalContext &) { return okStatus(); }));
            req.slicedCompute = Duration::millis(3);
            if (auto id = svc.submit(std::move(req)); !id)
                return id.error();
        }
        if (auto reports = svc.drain(); !reports)
            return reports.error();
    }
    raceOut = {detector.str(), detector.races().size(),
               detector.syncEvents()};
    metricsOut = svc.metrics();
    return okStatus();
}

int
lintTrace(const verify::ExecutionTrace &trace, bool verbose)
{
    const verify::TemporalReport report = verify::checkTemporal(trace);
    if (verbose)
        std::fputs(trace.str().c_str(), stdout);
    std::printf("%s\n", report.str().c_str());
    return report.ok() ? 0 : 1;
}

int
lintFile(const std::string &path)
{
    const auto blob = readFile(path);
    auto trace = blob ? verify::ExecutionTrace::decode(*blob)
                      : Result<verify::ExecutionTrace>(blob.error());
    if (!trace) {
        std::fprintf(stderr, "mintcb-lint: %s: %s\n", path.c_str(),
                     trace.error().str().c_str());
        return 2;
    }
    std::printf("%s: %zu events\n", path.c_str(), trace->size());
    return lintTrace(*trace, /*verbose=*/false);
}

/** The race detector's verdict on the built-in workload: no race, and
 *  at least one sync event seen. A detector that saw no sync edge passes
 *  any workload that shares no page, so it must have watched the run. */
bool
racesClean(const RaceSummary &races)
{
    std::printf("races: %s\n", races.report.c_str());
    if (races.syncEvents == 0) {
        std::printf("race detector saw no sync events\n");
        return false;
    }
    return races.races == 0;
}

int
recordMode(const std::string &path)
{
    verify::ExecutionTrace trace;
    RaceSummary races;
    sea::ServiceMetrics metrics;
    if (auto s = runWorkload(trace, races, metrics); !s.ok()) {
        std::fprintf(stderr, "mintcb-lint: workload failed: %s\n",
                     s.error().str().c_str());
        return 2;
    }
    if (auto s = writeFileDurable(path, trace.encode()); !s.ok()) {
        std::fprintf(stderr, "mintcb-lint: %s\n",
                     s.error().message.c_str());
        return 2;
    }
    std::printf("recorded %zu events to %s\n", trace.size(),
                path.c_str());
    const bool clean = racesClean(races);
    return lintTrace(trace, /*verbose=*/false) == 0 && clean ? 0 : 1;
}

/** One synthetic-violation expectation. */
bool
expectFinding(const char *label, const verify::ExecutionTrace &trace,
              const std::string &expectProperty)
{
    const verify::TemporalReport report = verify::checkTemporal(trace);
    for (const verify::TemporalFinding &f : report.findings) {
        if (f.property == expectProperty) {
            std::printf("  seeded %-28s flagged: %s\n", label,
                        f.str().c_str());
            return true;
        }
    }
    std::printf("  seeded %-28s NOT FLAGGED (expected %s)\n", label,
                expectProperty.c_str());
    return false;
}

int
selftest()
{
    using verify::TraceEventKind;

    bool ok = true;
    verify::ExecutionTrace trace;
    RaceSummary races;
    sea::ServiceMetrics metrics;
    if (auto s = runWorkload(trace, races, metrics); !s.ok()) {
        std::fprintf(stderr, "workload failed: %s\n",
                     s.error().str().c_str());
        return 1;
    }

    std::printf("workload trace: %zu events\n", trace.size());
    const verify::TemporalReport live = verify::checkTemporal(trace);
    std::printf("temporal: %s\n", live.str().c_str());
    ok &= live.ok();

    const verify::TemporalReport counters = verify::lintMetrics(metrics);
    std::printf("metrics: %s\n", counters.str().c_str());
    ok &= counters.ok();

    ok &= racesClean(races);

    // Serialization must round-trip the live trace exactly.
    auto back = verify::ExecutionTrace::decode(trace.encode());
    if (!back || back->size() != trace.size()) {
        std::printf("encode/decode round-trip FAILED\n");
        ok = false;
    }

    // Seeded-bad traces: each must trip its property.
    {
        verify::ExecutionTrace bad;
        bad.append(TraceEventKind::slaunch, 1, "leaky-pal");
        ok &= expectFinding("slaunch-without-exit", bad,
                            "slaunch-unpaired");
    }
    {
        verify::ExecutionTrace bad;
        bad.append(TraceEventKind::syield, 1, "ghost-pal");
        ok &= expectFinding("syield-before-slaunch", bad, "lifecycle");
    }
    {
        verify::ExecutionTrace bad;
        bad.append(TraceEventKind::slaunch, 1, "zombie-pal");
        bad.append(TraceEventKind::sfree, 1, "zombie-pal");
        bad.append(TraceEventKind::slaunch, 2, "zombie-pal");
        ok &= expectFinding("relaunch-after-sfree", bad, "lifecycle");
    }
    {
        verify::ExecutionTrace bad;
        bad.append(TraceEventKind::sessionOpen, 0, {});
        bad.append(TraceEventKind::sessionClose, 0, {});
        bad.append(TraceEventKind::transportExchange, 0, {}, 3);
        ok &= expectFinding("exchange-after-close", bad,
                            "session-use-after-close");
    }
    {
        verify::ExecutionTrace bad;
        bad.append(TraceEventKind::sessionResume, 0, {}, 1);
        ok &= expectFinding("resume-before-open", bad,
                            "session-resume-before-open");
    }

    std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string arg1 = argc > 1 ? argv[1] : "";
    if (arg1 == "--selftest")
        return selftest();
    if (arg1 == "--record" && argc > 2)
        return recordMode(argv[2]);
    if (!arg1.empty() && arg1[0] != '-')
        return lintFile(arg1);
    std::fprintf(stderr,
                 "usage: mintcb-lint <trace-file> | --record <file> | "
                 "--selftest\n");
    return 2;
}
