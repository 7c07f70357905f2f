/**
 * @file
 * ExecutionTrace -> span log replay.
 */

#include "obs/bridge.hh"

#include <utility>
#include <vector>

namespace mintcb::obs
{

std::size_t
spansFromTrace(const verify::ExecutionTrace &trace, SpanTracer &tracer)
{
    using verify::TraceEventKind;

    const std::size_t before = tracer.spans().size();
    // Open PAL slices (palName -> span id) and the open drain span.
    std::vector<std::pair<std::string, std::uint64_t>> slices;
    std::uint64_t drain = 0;
    TimePoint last;

    auto closeSlice = [&](const std::string &pal, TimePoint at,
                          const char *exit) {
        for (auto it = slices.rbegin(); it != slices.rend(); ++it) {
            if (it->first == pal) {
                tracer.annotate(it->second, "exit", exit);
                tracer.endSpan(it->second, at);
                slices.erase(std::next(it).base());
                return;
            }
        }
    };

    for (const verify::TraceEvent &e : trace.events()) {
        const TimePoint at = e.at;
        last = std::max(last, at);
        switch (e.kind) {
          case TraceEventKind::slaunch: {
            const std::uint64_t id = tracer.beginSpan(
                e.cpu, "pal:" + e.subject, "rec", at);
            tracer.annotate(id, "launch",
                            e.arg != 0 ? "resume" : "measure");
            slices.emplace_back(e.subject, id);
            break;
          }
          case TraceEventKind::syield:
            closeSlice(e.subject, at, "syield");
            break;
          case TraceEventKind::sfree:
            closeSlice(e.subject, at, "sfree");
            break;
          case TraceEventKind::skill:
            closeSlice(e.subject, at, "skill");
            break;
          case TraceEventKind::barrier:
            tracer.instant(track::scheduler, "barrier", "sched", at);
            break;
          case TraceEventKind::drainBegin: {
            drain = tracer.beginSpan(track::service, "drain", "sea", at);
            tracer.annotate(drain, "queued", std::to_string(e.arg));
            break;
          }
          case TraceEventKind::drainEnd:
            if (drain != 0) {
                tracer.annotate(drain, "completed",
                                std::to_string(e.arg));
                tracer.endSpan(drain, at);
                drain = 0;
            }
            break;
          case TraceEventKind::sessionOpen:
            tracer.instant(track::service, "session:open", "sea", at);
            break;
          case TraceEventKind::sessionResume: {
            const std::uint64_t id = tracer.instant(
                track::service, "session:resume", "sea", at);
            tracer.annotate(id, "epoch", std::to_string(e.arg));
            break;
          }
          case TraceEventKind::sessionClose:
            tracer.instant(track::service, "session:close", "sea", at);
            break;
          case TraceEventKind::transportExchange: {
            const std::uint64_t id = tracer.instant(
                track::service, "audit:exchange", "sea", at);
            tracer.annotate(id, "commands", std::to_string(e.arg));
            break;
          }
        }
    }
    tracer.closeAll(last);
    return tracer.spans().size() - before;
}

} // namespace mintcb::obs
