/**
 * @file
 * mintcb-trace: sim-time span tracing for mintcb workloads.
 *
 * Modes:
 *
 *   mintcb-trace --top             run the built-in service workload
 *                                  with telemetry attached and print
 *                                  the where-does-the-time-go table.
 *   mintcb-trace --export <file>   same run; write the span log as
 *                                  Chrome trace-event JSON (open it in
 *                                  Perfetto / chrome://tracing).
 *   mintcb-trace --table           same run; flat per-span listing.
 *   mintcb-trace --metrics         same run; Prometheus exposition of
 *                                  the metrics registry.
 *   mintcb-trace <trace-file>      replay a recorded MTL3 ExecutionTrace
 *                                  (mintcb-lint --record) into spans
 *                                  and print --top for it; combine
 *                                  with --export to render it; exit 1
 *                                  on no spans or a span left open.
 *   mintcb-trace --selftest        run the workload, export, re-parse,
 *                                  and structurally verify the
 *                                  round-trip; require the replayed
 *                                  recording to draw the live spans;
 *                                  exit 0 only if all pass.
 */

#include <cstdio>
#include <functional>
#include <string>

#include "common/file.hh"
#include "obs/bridge.hh"
#include "obs/chromejson.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "sea/service.hh"
#include "verify/trace.hh"

namespace
{

using namespace mintcb;

/** One run of the built-in workload, as telemetry drew it live and as
 *  a recorder on the same service logged it. */
struct Recording
{
    obs::SpanTracer tracer;
    obs::MetricsRegistry metrics;
    std::vector<std::pair<std::uint32_t, std::string>> tracks;
    verify::ExecutionTrace trace;
};

/**
 * The mintcb-lint workload shape: two drain cycles (session opened
 * then resumed) over enough PALs to force preemption yields.
 *
 * The metrics registry's bridged series read the machine's counter
 * structs at render time, so anything that consumes the metrics must
 * run inside @p consume -- after the machine dies those series dangle.
 */
Status
runWorkload(Recording &out, const std::function<void()> &consume = {})
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);

    obs::TelemetrySession telemetry(m, out.tracer, out.metrics);
    telemetry.attach(svc);
    verify::TraceRecorder recorder(out.trace);
    recorder.attach(svc);
    out.tracks = telemetry.trackNames();

    for (int cycle = 0; cycle < 2; ++cycle) {
        for (int i = 0; i < 4; ++i) {
            const std::string name = "trace-pal-" +
                                     std::to_string(cycle) + "-" +
                                     std::to_string(i);
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
    telemetry.detach();
    if (consume)
        consume();
    return okStatus();
}

int
writeExport(const obs::SpanTracer &tracer,
            const std::vector<std::pair<std::uint32_t, std::string>>
                &tracks,
            const std::string &path)
{
    const std::string json = tracer.exportChromeTrace(tracks);
    if (auto s = writeFileDurable(path, Bytes(json.begin(), json.end()));
        !s.ok()) {
        std::fprintf(stderr, "mintcb-trace: %s\n",
                     s.error().message.c_str());
        return 2;
    }
    std::printf("exported %zu spans to %s\n", tracer.spans().size(),
                path.c_str());
    return 0;
}

int
replayFile(const std::string &path, const std::string &exportPath)
{
    const auto blob = readFile(path);
    auto trace = blob ? verify::ExecutionTrace::decode(*blob)
                      : Result<verify::ExecutionTrace>(blob.error());
    if (!trace) {
        std::fprintf(stderr, "mintcb-trace: %s: %s\n", path.c_str(),
                     trace.error().str().c_str());
        return 2;
    }
    obs::SpanTracer tracer;
    const std::size_t n = obs::spansFromTrace(*trace, tracer);
    const std::size_t open = tracer.openCount();
    std::printf("%s: %zu events -> %zu spans, %zu left open\n",
                path.c_str(), trace->size(), n, open);
    if (n == 0 || open != 0) {
        std::fprintf(stderr, "mintcb-trace: %s: %s\n", path.c_str(),
                     open != 0 ? "spans left open" : "no spans");
        return 1;
    }
    if (!exportPath.empty())
        return writeExport(tracer, {}, exportPath);
    std::fputs(tracer.topTable().c_str(), stdout);
    return 0;
}

int
selftest()
{
    bool ok = true;
    Recording rec;
    const obs::SpanTracer &tracer = rec.tracer;
    std::size_t series = 0;
    double extends = 0.0;
    if (auto s = runWorkload(rec, [&] {
            series = rec.metrics.seriesCount();
            extends = rec.metrics.value("mintcb_tpm_extends_total");
        });
        !s.ok()) {
        std::fprintf(stderr, "workload failed: %s\n",
                     s.error().str().c_str());
        return 1;
    }

    const std::size_t spans = tracer.spans().size();
    std::printf("workload recorded %zu spans\n", spans);
    ok &= spans > 0;
    ok &= tracer.openCount() == 0;

    // The span log must contain every layer's activity.
    bool sawPal = false, sawTpm = false, sawDrain = false,
         sawRequest = false;
    for (const obs::Span &s : tracer.spans()) {
        sawPal |= s.category == "rec";
        sawTpm |= s.category == "tpm";
        sawDrain |= s.name == "drain";
        sawRequest |= s.async && s.correlation != 0;
    }
    std::printf("coverage: pal=%d tpm=%d drain=%d request=%d\n",
                sawPal, sawTpm, sawDrain, sawRequest);
    ok &= sawPal && sawTpm && sawDrain && sawRequest;

    // Chrome export -> file -> parse -> identical span count. Going
    // through a real file proves the artifact --export writes is
    // structurally valid, not just the in-memory string.
    const std::string path = "trace_selftest.json";
    if (writeExport(tracer, rec.tracks, path) != 0)
        ok = false;
    const auto file = readFile(path);
    const std::string json = file ? std::string(file->begin(), file->end())
                                  : std::string();
    auto parsed = obs::parseChromeTrace(json);
    if (!parsed) {
        std::printf("export parse FAILED: %s\n",
                    parsed.error().str().c_str());
        ok = false;
    } else {
        std::printf("export round-trip: %zu spans (expected %zu)\n",
                    parsed->spanCount(), spans);
        ok &= parsed->spanCount() == spans;
    }

    // Replaying the run's own recording draws the sync-event stream
    // exactly as telemetry drew it live.
    auto decoded = verify::ExecutionTrace::decode(rec.trace.encode());
    obs::SpanTracer replay;
    if (decoded)
        obs::spansFromTrace(*decoded, replay);
    const std::string diff = decoded ? obs::syncSpanDiff(tracer, replay)
                                     : decoded.error().str();
    std::printf("live vs replay: %s\n",
                diff.empty() ? "identical" : diff.c_str());
    ok &= diff.empty();

    // The registry saw the bridged counters and the obs histograms.
    std::printf("metrics: %zu series, %.0f TPM extends\n", series,
                extends);
    ok &= series > 10 && extends > 0;

    std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode, file, traceFile;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest" || a == "--top" || a == "--table" ||
            a == "--metrics") {
            mode = a;
        } else if (a == "--export" && i + 1 < argc) {
            mode = a;
            file = argv[++i];
        } else if (!a.empty() && a[0] != '-') {
            traceFile = a;
        } else {
            mode = "--help";
        }
    }

    if (mode == "--selftest")
        return selftest();
    if (!traceFile.empty())
        return replayFile(traceFile, file);

    if (mode == "--top" || mode == "--table" || mode == "--metrics" ||
        mode == "--export") {
        Recording rec;
        const obs::SpanTracer &tracer = rec.tracer;
        std::string exposition;
        if (auto s = runWorkload(rec, [&] {
                exposition = rec.metrics.renderPrometheus();
            });
            !s.ok()) {
            std::fprintf(stderr, "mintcb-trace: workload failed: %s\n",
                         s.error().str().c_str());
            return 2;
        }
        if (mode == "--export")
            return writeExport(tracer, rec.tracks, file);
        if (mode == "--table")
            std::fputs(tracer.table().c_str(), stdout);
        else if (mode == "--metrics")
            std::fputs(exposition.c_str(), stdout);
        else
            std::fputs(tracer.topTable().c_str(), stdout);
        return 0;
    }

    std::fprintf(stderr,
                 "usage: mintcb-trace --top | --table | --metrics | "
                 "--export <file>.json | --selftest | <trace-file> "
                 "[--export <file>.json]\n"
                 "  <trace-file> is an MTL3 ExecutionTrace "
                 "(mintcb-lint --record)\n");
    return 2;
}
