/**
 * @file
 * The sync-event stream -> span mapping.
 */

#include "obs/bridge.hh"

#include <algorithm>
#include <tuple>
#include <vector>

namespace mintcb::obs
{

void
SyncSpanMapping::add(const verify::TraceEvent &e)
{
    using verify::TraceEventKind;

    switch (e.kind) {
      case TraceEventKind::slaunch: {
        const std::uint64_t id = tracer_.beginSpan(
            e.cpu, "pal:" + e.subject, "rec", e.at, e.requestId);
        tracer_.annotate(id, "launch", e.arg != 0 ? "resume" : "measure");
        slices_[e.cpu] = Slice{e.requestId, e.subject, id};
        break;
      }
      case TraceEventKind::syield:
      case TraceEventKind::sfree:
      case TraceEventKind::skill: {
        // SKILL reclaims a suspended PAL from the boot CPU: its slice
        // closed at SYIELD, and whatever runs there now is another PAL.
        auto it = slices_.find(e.cpu);
        if (it == slices_.end() || it->second.requestId != e.requestId ||
            it->second.pal != e.subject) {
            break;
        }
        tracer_.annotate(it->second.span, "exit",
                         verify::traceEventKindName(e.kind));
        tracer_.endSpan(it->second.span, e.at);
        slices_.erase(it);
        break;
      }
      case TraceEventKind::barrier:
        if (round_ != 0)
            tracer_.endSpan(round_, e.at);
        ++roundIndex_;
        round_ = tracer_.beginSpan(track::scheduler,
                                   "round " + std::to_string(roundIndex_),
                                   "sched", e.at);
        break;
      case TraceEventKind::drainBegin:
        drain_ = tracer_.beginSpan(track::service, "drain", "sea", e.at);
        tracer_.annotate(drain_, "queued", std::to_string(e.arg));
        roundIndex_ = 0;
        round_ = tracer_.beginSpan(track::scheduler, "round 0", "sched",
                                   e.at);
        break;
      case TraceEventKind::drainEnd:
        if (round_ != 0)
            tracer_.endSpan(round_, e.at);
        round_ = 0;
        if (drain_ != 0) {
            tracer_.annotate(drain_, "completed", std::to_string(e.arg));
            tracer_.endSpan(drain_, e.at);
        }
        drain_ = 0;
        break;
      case TraceEventKind::sessionOpen:
        tracer_.instant(track::service, "session:open", "sea", e.at);
        break;
      case TraceEventKind::sessionResume:
        tracer_.annotate(
            tracer_.instant(track::service, "session:resume", "sea", e.at),
            "epoch", std::to_string(e.arg));
        break;
      case TraceEventKind::sessionClose:
        tracer_.instant(track::service, "session:close", "sea", e.at);
        break;
      case TraceEventKind::transportExchange:
        tracer_.annotate(
            tracer_.instant(track::service, "audit:exchange", "sea", e.at),
            "commands", std::to_string(e.arg));
        break;
    }
}

void
SyncSpanMapping::reset()
{
    slices_.clear();
    drain_ = 0;
    round_ = 0;
}

std::size_t
spansFromTrace(const verify::ExecutionTrace &trace, SpanTracer &tracer)
{
    const std::size_t before = tracer.spans().size();
    SyncSpanMapping mapping(tracer);
    for (const verify::TraceEvent &e : trace.events())
        mapping.add(e);
    return tracer.spans().size() - before;
}

std::string
syncSpanDiff(const SpanTracer &live, const SpanTracer &replay)
{
    auto syncSpans = [](const SpanTracer &t) {
        std::vector<const Span *> out;
        for (const Span &s : t.spans()) {
            if (s.track < track::tpm || s.track == track::scheduler ||
                s.track == track::service) {
                out.push_back(&s);
            }
        }
        return out;
    };
    auto key = [](const Span *s) {
        return std::tie(s->name, s->track, s->begin, s->end, s->correlation,
                        s->args);
    };
    const std::vector<const Span *> a = syncSpans(live);
    const std::vector<const Span *> b = syncSpans(replay);
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i < a.size() && i < b.size() && key(a[i]) == key(b[i]))
            continue;
        return "sync span " + std::to_string(i) + " differs: live " +
               (i < a.size() ? a[i]->name : "none") + ", replay " +
               (i < b.size() ? b[i]->name : "none");
    }
    return {};
}

} // namespace mintcb::obs
