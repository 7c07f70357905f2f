/**
 * @file
 * Span tracer tests: nesting and unwind semantics, ordering under real
 * multi-CPU scheduling, Chrome trace-event round-trip, and the
 * ExecutionTrace -> span bridge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/bridge.hh"
#include "obs/chromejson.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "sea/service.hh"
#include "verify/trace.hh"

namespace mintcb::obs
{
namespace
{

TimePoint
at(double us)
{
    return TimePoint() + Duration::micros(us);
}

TEST(Tracer, NestedSpansAreParented)
{
    SpanTracer t;
    const auto outer = t.beginSpan(1, "outer", "test", at(0));
    const auto inner = t.beginSpan(1, "inner", "test", at(10));
    EXPECT_EQ(t.currentSpan(1), inner);
    t.endSpan(inner, at(20));
    t.endSpan(outer, at(30));
    ASSERT_EQ(t.spans().size(), 2u);
    // Completion order: inner first.
    EXPECT_EQ(t.spans()[0].name, "inner");
    EXPECT_EQ(t.spans()[0].parent, outer);
    EXPECT_EQ(t.spans()[1].parent, 0u);
    EXPECT_EQ(t.openCount(), 0u);
}

TEST(Tracer, TracksNestIndependently)
{
    SpanTracer t;
    const auto a = t.beginSpan(1, "cpu1", "test", at(0));
    const auto b = t.beginSpan(2, "cpu2", "test", at(5));
    // The track-2 span is not a child of the track-1 span.
    EXPECT_EQ(t.currentSpan(1), a);
    EXPECT_EQ(t.currentSpan(2), b);
    t.endSpan(a, at(10));
    EXPECT_EQ(t.openCount(), 1u);
    t.endSpan(b, at(12));
    for (const Span &s : t.spans())
        EXPECT_EQ(s.parent, 0u);
}

TEST(Tracer, EndingOuterSpanUnwindsInner)
{
    SpanTracer t;
    const auto outer = t.beginSpan(1, "outer", "test", at(0));
    t.beginSpan(1, "inner", "test", at(1));
    t.beginSpan(1, "innermost", "test", at(2));
    t.endSpan(outer, at(9)); // crash-style unwind closes all three
    EXPECT_EQ(t.openCount(), 0u);
    ASSERT_EQ(t.spans().size(), 3u);
    for (const Span &s : t.spans())
        EXPECT_EQ(s.end, at(9));
}

TEST(Tracer, AsyncSpansOverlapFreely)
{
    SpanTracer t;
    const auto r1 = t.beginAsync(9, "req-1", "svc", at(0), 1);
    const auto r2 = t.beginAsync(9, "req-2", "svc", at(1), 2);
    t.endAsync(r1, at(50));
    t.endAsync(r2, at(40));
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_TRUE(t.spans()[0].async);
    EXPECT_EQ(t.spans()[0].correlation, 1u);
    EXPECT_EQ(t.spans()[1].correlation, 2u);
}

TEST(Tracer, CloseAllDrainsEverything)
{
    SpanTracer t;
    t.beginSpan(1, "a", "test", at(0));
    t.beginAsync(2, "b", "test", at(1));
    t.beginSpan(3, "c", "test", at(2));
    t.closeAll(at(10));
    EXPECT_EQ(t.openCount(), 0u);
    EXPECT_EQ(t.spans().size(), 3u);
}

TEST(Tracer, TopAggregatesByName)
{
    SpanTracer t;
    t.completeSpan(1, "work", "test", at(0), at(10));
    t.completeSpan(1, "work", "test", at(20), at(50));
    t.completeSpan(1, "other", "test", at(60), at(65));
    const auto rows = t.top();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "work"); // heaviest total first
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_EQ(rows[0].total, Duration::micros(40));
    EXPECT_EQ(rows[0].max, Duration::micros(30));
}

/** Every pair of sync spans on one track must nest or be disjoint. */
void
expectWellNested(const std::vector<Span> &spans)
{
    std::map<std::uint32_t, std::vector<const Span *>> byTrack;
    for (const Span &s : spans) {
        if (!s.async && !s.instant)
            byTrack[s.track].push_back(&s);
    }
    for (const auto &[track, list] : byTrack) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            for (std::size_t j = i + 1; j < list.size(); ++j) {
                const Span &a = *list[i];
                const Span &b = *list[j];
                const bool disjoint =
                    a.end <= b.begin || b.end <= a.begin;
                const bool aInB =
                    b.begin <= a.begin && a.end <= b.end;
                const bool bInA =
                    a.begin <= b.begin && b.end <= a.end;
                EXPECT_TRUE(disjoint || aInB || bInA)
                    << "track " << track << ": " << a.name << " vs "
                    << b.name;
            }
        }
    }
}

/** Run a preempting multi-PAL workload with telemetry attached. */
std::size_t
tracedWorkload(SpanTracer &tracer, MetricsRegistry &metrics)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    TelemetrySession telemetry(m, tracer, metrics);
    telemetry.attach(svc);
    for (int i = 0; i < 4; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "nest-pal-" + std::to_string(i), 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = Duration::millis(3);
        EXPECT_TRUE(svc.submit(std::move(req)).ok());
    }
    EXPECT_TRUE(svc.drain().ok());
    telemetry.detach();
    return tracer.spans().size();
}

TEST(Tracer, MultiCpuSchedulingStaysWellNested)
{
    SpanTracer tracer;
    MetricsRegistry metrics;
    const std::size_t n = tracedWorkload(tracer, metrics);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(tracer.openCount(), 0u);
    expectWellNested(tracer.spans());

    // Spans never run backwards, and each track's log is begin-ordered
    // per its clock.
    for (const Span &s : tracer.spans())
        EXPECT_LE(s.begin, s.end) << s.name;

    // PAL slices exist on more than one CPU track (the testbed has
    // multiple PAL-eligible cores) and every slice carries its
    // originating request id.
    std::map<std::uint32_t, int> palTracks;
    for (const Span &s : tracer.spans()) {
        if (s.category == "rec") {
            ++palTracks[s.track];
            EXPECT_NE(s.correlation, 0u) << s.name;
        }
    }
    EXPECT_GE(palTracks.size(), 2u);
}

/** Requests that share a PAL name still get their own slices: every
 *  `pal:` slice carries the id of the request whose SECB it ran. The
 *  requests differ in compute, so each runs its own number of slices,
 *  and the last of them ends on the CPU its report names. */
TEST(Tracer, SameNamePalSlicesCarryTheirOwnRequest)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    SpanTracer tracer;
    MetricsRegistry metrics;
    TelemetrySession telemetry(m, tracer, metrics);
    telemetry.attach(svc);
    for (int i = 0; i < 4; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "same-name-pal", 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = Duration::millis(1 + i);
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    telemetry.detach();

    std::size_t slices = 0;
    for (const Span &s : tracer.spans())
        slices += s.category == "rec" ? 1 : 0;
    std::uint64_t launches = 0;
    for (const sea::ExecutionReport &r : *reports) {
        launches += r.launches;
        std::uint64_t own = 0;
        const Span *last = nullptr;
        for (const Span &s : tracer.spans()) {
            if (s.category != "rec" || s.correlation != r.requestId)
                continue;
            ++own;
            if (last == nullptr || last->end < s.end)
                last = &s;
        }
        EXPECT_EQ(own, r.launches) << "request " << r.requestId;
        ASSERT_NE(last, nullptr) << "request " << r.requestId;
        EXPECT_EQ(last->track, r.cpu) << "request " << r.requestId;
    }
    EXPECT_EQ(slices, launches);
}

/** A recorder attached to the same service after telemetry joins the
 *  service's milestones without taking them from telemetry. */
TEST(Telemetry, RecorderOnTheSameServiceLeavesTelemetryItsStream)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    SpanTracer tracer;
    MetricsRegistry metrics;
    TelemetrySession telemetry(m, tracer, metrics);
    verify::ExecutionTrace trace;
    verify::TraceRecorder recorder(trace);
    telemetry.attach(svc);
    recorder.attach(svc);

    sea::PalRequest req(sea::Pal::fromLogic(
        "shared-service-pal", 4 * 1024,
        [](sea::PalContext &) { return okStatus(); }));
    ASSERT_TRUE(svc.submit(std::move(req)).ok());
    ASSERT_TRUE(svc.drain().ok());
    telemetry.detach();

    std::size_t drains = 0;
    std::size_t requests = 0;
    for (const Span &s : tracer.spans()) {
        drains += s.name == "drain" ? 1 : 0;
        requests += s.track == track::requests ? 1 : 0;
    }
    EXPECT_EQ(drains, 1u);
    EXPECT_EQ(requests, 1u);
    std::size_t recordedDrains = 0;
    for (const verify::TraceEvent &e : trace.events())
        recordedDrains += e.kind == verify::TraceEventKind::drainEnd;
    EXPECT_EQ(recordedDrains, 1u);
}

/** The sync-event stream's spans: CPU, scheduler and service tracks,
 *  in completion order. */
std::vector<const Span *>
syncTrackSpans(const SpanTracer &tracer)
{
    std::vector<const Span *> out;
    for (const Span &s : tracer.spans()) {
        if (s.track < track::tpm || s.track == track::scheduler ||
            s.track == track::service) {
            out.push_back(&s);
        }
    }
    return out;
}

/** One run, two renderings: live telemetry and a replay of the same
 *  run's recording (through the MTL3 encoding) draw identical CPU,
 *  scheduler and service tracks. Two drains (a session opened, then
 *  resumed), preempting PALs, and two requests sharing a PAL name. */
TEST(Telemetry, LiveTracksEqualTheReplayedRecording)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    SpanTracer live;
    MetricsRegistry metrics;
    TelemetrySession telemetry(m, live, metrics);
    verify::ExecutionTrace trace;
    verify::TraceRecorder recorder(trace);
    telemetry.attach(svc);
    recorder.attach(svc);
    for (int cycle = 0; cycle < 2; ++cycle) {
        for (int i = 0; i < 4; ++i) {
            sea::PalRequest req(sea::Pal::fromLogic(
                "replay-pal-" + std::to_string(i % 3), 4 * 1024,
                [](sea::PalContext &) { return okStatus(); }));
            req.slicedCompute = Duration::millis(1 + i);
            ASSERT_TRUE(svc.submit(std::move(req)).ok());
        }
        ASSERT_TRUE(svc.drain().ok());
    }
    telemetry.detach();

    auto decoded = verify::ExecutionTrace::decode(trace.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().str();
    SpanTracer replay;
    spansFromTrace(*decoded, replay);
    EXPECT_EQ(replay.openCount(), 0u);

    const std::vector<const Span *> a = syncTrackSpans(live);
    const std::vector<const Span *> b = syncTrackSpans(replay);
    ASSERT_EQ(a.size(), b.size());
    std::map<std::string, int> kinds;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->name, b[i]->name) << i;
        EXPECT_EQ(a[i]->track, b[i]->track) << i;
        EXPECT_EQ(a[i]->begin, b[i]->begin) << i << " " << a[i]->name;
        EXPECT_EQ(a[i]->end, b[i]->end) << i << " " << a[i]->name;
        EXPECT_EQ(a[i]->correlation, b[i]->correlation) << i;
        EXPECT_EQ(a[i]->args, b[i]->args) << i << " " << a[i]->name;
        ++kinds[a[i]->name.substr(0, a[i]->name.find_first_of(": "))];
    }
    // Every part of the mapping took part.
    EXPECT_EQ(kinds["drain"], 2);
    EXPECT_GT(kinds["round"], 2);
    EXPECT_EQ(kinds["session"], 2);
    EXPECT_EQ(kinds["audit"], 2);
    EXPECT_GT(kinds["pal"], 8);
    EXPECT_EQ(syncSpanDiff(live, replay), "");

    // The shared comparison notices a moved span.
    SpanTracer shifted;
    for (const verify::TraceEvent &e : decoded->events()) {
        verify::TraceEvent late = e;
        late.at = late.at + Duration::picos(1);
        SyncSpanMapping(shifted).add(late);
    }
    EXPECT_NE(syncSpanDiff(live, shifted), "");
}

TEST(Tracer, ChromeExportRoundTrips)
{
    SpanTracer tracer;
    MetricsRegistry metrics;
    tracedWorkload(tracer, metrics);

    const std::string json = tracer.exportChromeTrace(
        {{track::tpm, "tpm"}, {track::service, "service"}});
    auto parsed = parseChromeTrace(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed->spanCount(), tracer.spans().size());

    // Async request spans export as matched b/e pairs.
    std::map<std::string, int> phases;
    for (const ChromeEvent &e : parsed->events)
        ++phases[e.phase];
    EXPECT_EQ(phases["b"], phases["e"]);
    EXPECT_GT(phases["X"], 0);
    EXPECT_EQ(phases["M"], 2); // the two track names

    // Timestamps survive the round-trip: find one X event and match
    // it against the span log (microsecond fields, sub-us precision).
    bool matched = false;
    for (const ChromeEvent &e : parsed->events) {
        if (e.phase != "X")
            continue;
        for (const Span &s : tracer.spans()) {
            if (s.name == e.name &&
                std::abs(s.begin.sinceEpoch().toMicros() - e.ts) <
                    1e-6) {
                matched = true;
                break;
            }
        }
        if (matched)
            break;
    }
    EXPECT_TRUE(matched);
}

TEST(Tracer, MalformedChromeJsonRejected)
{
    EXPECT_FALSE(parseChromeTrace("{").ok());
    EXPECT_FALSE(parseChromeTrace("[]").ok());
    EXPECT_FALSE(
        parseChromeTrace("{\"traceEvents\":[{\"ph\":\"X\"").ok());
}

TEST(Bridge, SyntheticTraceBecomesSpans)
{
    verify::ExecutionTrace trace;
    using K = verify::TraceEventKind;
    trace.append(K::drainBegin, 0, "", 2, at(0));
    trace.append(K::slaunch, 1, "pal-a", 0, at(10));
    trace.append(K::syield, 1, "pal-a", 0, at(40));
    trace.append(K::slaunch, 2, "pal-b", 0, at(15));
    trace.append(K::sfree, 2, "pal-b", 0, at(55));
    trace.append(K::barrier, 0, "", 0, at(60));
    trace.append(K::drainEnd, 0, "", 2, at(70));

    SpanTracer tracer;
    const std::size_t n = spansFromTrace(trace, tracer);
    EXPECT_EQ(n, tracer.spans().size());
    EXPECT_EQ(tracer.openCount(), 0u);

    // The PAL slices carry their recorded times.
    bool sawA = false, sawB = false, sawDrain = false;
    for (const Span &s : tracer.spans()) {
        if (s.name == "pal:pal-a") {
            sawA = true;
            EXPECT_EQ(s.begin, at(10));
            EXPECT_EQ(s.end, at(40));
            EXPECT_EQ(s.track, 1u);
        }
        if (s.name == "pal:pal-b") {
            sawB = true;
            EXPECT_EQ(s.duration(), Duration::micros(40));
        }
        sawDrain |= s.name == "drain";
    }
    EXPECT_TRUE(sawA && sawB && sawDrain);
}

TEST(Bridge, RecordedRunFeedsTraceAndSpans)
{
    // One recorded run -> lintable trace -> spans, no re-execution.
    verify::ExecutionTrace trace;
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    verify::TraceRecorder recorder(trace);
    recorder.attach(svc);
    sea::PalRequest req(sea::Pal::fromLogic(
        "bridge-pal", 4 * 1024,
        [](sea::PalContext &) { return okStatus(); }));
    ASSERT_TRUE(svc.submit(std::move(req)).ok());
    ASSERT_TRUE(svc.drain().ok());

    // Round-trip through the wire format like mintcb-trace does.
    auto decoded = verify::ExecutionTrace::decode(trace.encode());
    ASSERT_TRUE(decoded.ok());

    SpanTracer tracer;
    const std::size_t n = spansFromTrace(*decoded, tracer);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(tracer.openCount(), 0u);
    bool sawPal = false;
    for (const Span &s : tracer.spans())
        sawPal |= s.name == "pal:bridge-pal";
    EXPECT_TRUE(sawPal);
}

} // namespace
} // namespace mintcb::obs
