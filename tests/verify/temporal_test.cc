/**
 * @file
 * Trace recording + temporal-property tests: a real service run yields
 * a clean trace, serialization round-trips, and synthetic bad traces
 * trip exactly the property they violate.
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "sea/service.hh"
#include "verify/temporal.hh"
#include "verify/trace.hh"

namespace mintcb::verify
{
namespace
{

using machine::Machine;
using machine::PlatformId;

/** Run a two-drain service workload under a TraceRecorder. */
ExecutionTrace
recordedServiceRun(sea::ServiceMetrics *metrics_out = nullptr)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    ExecutionTrace trace;
    TraceRecorder recorder(trace);
    recorder.attach(svc);

    for (int cycle = 0; cycle < 2; ++cycle) {
        for (int i = 0; i < 3; ++i) {
            sea::PalRequest req(sea::Pal::fromLogic(
                "trace-pal-" + std::to_string(cycle) + "-" +
                    std::to_string(i),
                4 * 1024, [](sea::PalContext &) { return okStatus(); }));
            req.slicedCompute = Duration::millis(2);
            EXPECT_TRUE(svc.submit(std::move(req)).ok());
        }
        EXPECT_TRUE(svc.drain().ok());
    }
    if (metrics_out)
        *metrics_out = svc.metrics();
    return trace;
}

TEST(ExecutionTrace, RealServiceRunSatisfiesAllProperties)
{
    sea::ServiceMetrics metrics;
    const ExecutionTrace trace = recordedServiceRun(&metrics);
    ASSERT_FALSE(trace.empty());

    const TemporalReport report = checkTemporal(trace);
    EXPECT_TRUE(report.ok()) << report.str() << trace.str();

    const TemporalReport counters = lintMetrics(metrics);
    EXPECT_TRUE(counters.ok()) << counters.str();
}

/** Four requests for one PAL name, the traffic shape of a gateway
 *  serving one client PAL: each request's SECB has its own lifecycle,
 *  so none of them may read as a relaunch of another's done SECB. */
TEST(ExecutionTrace, SameNameRequestsLintClean)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    ExecutionTrace trace;
    TraceRecorder recorder(trace);
    recorder.attach(svc);
    for (int i = 0; i < 4; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "same-name-pal", 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = Duration::millis(2);
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    ASSERT_TRUE(svc.drain().ok());

    const TemporalReport report = checkTemporal(trace);
    EXPECT_TRUE(report.ok()) << report.str() << trace.str();
}

TEST(ExecutionTrace, RecordsTheExpectedEventMix)
{
    const ExecutionTrace trace = recordedServiceRun();
    std::size_t slaunches = 0;
    std::size_t exits = 0;
    std::size_t opens = 0;
    std::size_t resumes = 0;
    std::size_t exchanges = 0;
    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEventKind::slaunch: ++slaunches; break;
          case TraceEventKind::sfree:
          case TraceEventKind::skill: ++exits; break;
          case TraceEventKind::sessionOpen: ++opens; break;
          case TraceEventKind::sessionResume: ++resumes; break;
          case TraceEventKind::transportExchange: ++exchanges; break;
          default: break;
        }
    }
    EXPECT_EQ(exits, 6u);        // every PAL exits exactly once
    EXPECT_GE(slaunches, exits); // plus resumes after preemption
    // Two drains with session reuse on: one key exchange, one resume,
    // one pipelined audit exchange per drain.
    EXPECT_EQ(opens, 1u);
    EXPECT_EQ(resumes, 1u);
    EXPECT_EQ(exchanges, 2u);
}

TEST(ExecutionTrace, EncodeDecodeRoundTrips)
{
    const ExecutionTrace trace = recordedServiceRun();
    const Bytes blob = trace.encode();
    auto back = ExecutionTrace::decode(blob);
    ASSERT_TRUE(back.ok()) << back.error().str();
    ASSERT_EQ(back->size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &a = trace.events()[i];
        const TraceEvent &b = back->events()[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.seq, b.seq) << i;
        EXPECT_EQ(a.cpu, b.cpu) << i;
        EXPECT_EQ(a.subject, b.subject) << i;
        EXPECT_EQ(a.arg, b.arg) << i;
        EXPECT_EQ(a.at, b.at) << i;
        EXPECT_EQ(a.requestId, b.requestId) << i;
    }
    EXPECT_EQ(back->encode(), blob);
}

TEST(ExecutionTrace, DecodeRejectsCorruptBlobs)
{
    const ExecutionTrace trace = recordedServiceRun();
    Bytes blob = trace.encode();

    Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
    EXPECT_FALSE(ExecutionTrace::decode(truncated).ok());

    Bytes wrong_magic = blob;
    wrong_magic[0] ^= 0xff;
    EXPECT_FALSE(ExecutionTrace::decode(wrong_magic).ok());

    Bytes trailing = blob;
    trailing.push_back(0x00);
    EXPECT_FALSE(ExecutionTrace::decode(trailing).ok());

    EXPECT_FALSE(ExecutionTrace::decode(Bytes{}).ok());

    // The retired untimed format: an empty "MTL1" trace is refused.
    const auto v1 = ExecutionTrace::decode(
        Bytes{'M', 'T', 'L', '1', 0, 0, 0, 0});
    ASSERT_FALSE(v1.ok());
    EXPECT_EQ(v1.error().message, "not a mintcb trace blob");
}

/** MTL2 events had no request id; a reader cannot tell which SECB an
 *  MTL2 PAL event belongs to, so decode refuses the format outright. */
TEST(ExecutionTrace, DecodeRefusesTheRetiredMtl2Format)
{
    ByteWriter w;
    w.u32(0x4d544c32); // "MTL2"
    w.u32(1);
    w.u8(static_cast<std::uint8_t>(TraceEventKind::slaunch));
    w.u32(1);
    w.str("pal");
    w.u64(0);
    w.u64(5);
    const auto v2 = ExecutionTrace::decode(w.take());
    ASSERT_FALSE(v2.ok());
    EXPECT_EQ(v2.error().code, Errc::integrityFailure);
    EXPECT_EQ(v2.error().message, "not a mintcb trace blob");
}

TEST(TemporalChecker, UnpairedSlaunchIsFlagged)
{
    ExecutionTrace trace;
    trace.append(TraceEventKind::slaunch, 0, "leaky");
    trace.append(TraceEventKind::syield, 0, "leaky");
    const TemporalReport report = checkTemporal(trace);
    ASSERT_EQ(report.findings.size(), 1u) << report.str();
    EXPECT_EQ(report.findings[0].property, "slaunch-unpaired");
    EXPECT_NE(report.findings[0].detail.find("leaky"),
              std::string::npos);
}

TEST(TemporalChecker, IllegalLifecycleEdgesAreFlagged)
{
    // SYIELD before any SLAUNCH.
    {
        ExecutionTrace trace;
        trace.append(TraceEventKind::syield, 0, "ghost");
        const TemporalReport report = checkTemporal(trace);
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.findings[0].property, "lifecycle");
    }
    // Relaunch after SFREE (the no-SLAUNCH-on-a-done-SECB rule).
    {
        ExecutionTrace trace;
        trace.append(TraceEventKind::slaunch, 0, "zombie");
        trace.append(TraceEventKind::sfree, 0, "zombie");
        trace.append(TraceEventKind::slaunch, 1, "zombie");
        const TemporalReport report = checkTemporal(trace);
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.findings[0].property, "lifecycle");
        EXPECT_EQ(report.findings[0].seq, 2u);
    }
    // SKILL requires the PAL to exist (Start -> Done has no arrow).
    {
        ExecutionTrace trace;
        trace.append(TraceEventKind::skill, 0, "unborn");
        const TemporalReport report = checkTemporal(trace);
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.findings[0].property, "lifecycle");
    }
}

TEST(TemporalChecker, TransportUseAfterCloseIsFlagged)
{
    ExecutionTrace trace;
    trace.append(TraceEventKind::sessionOpen, 0, {});
    trace.append(TraceEventKind::transportExchange, 0, {}, 2);
    trace.append(TraceEventKind::sessionClose, 0, {});
    trace.append(TraceEventKind::transportExchange, 0, {}, 1);
    trace.append(TraceEventKind::sessionResume, 0, {}, 1);
    const TemporalReport report = checkTemporal(trace);
    ASSERT_EQ(report.findings.size(), 2u) << report.str();
    EXPECT_EQ(report.findings[0].property, "session-use-after-close");
    EXPECT_EQ(report.findings[0].seq, 3u);
    EXPECT_EQ(report.findings[1].property, "session-use-after-close");
}

TEST(TemporalChecker, ExchangeBeforeOpenIsFlagged)
{
    ExecutionTrace trace;
    trace.append(TraceEventKind::transportExchange, 0, {}, 1);
    const TemporalReport report = checkTemporal(trace);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.findings[0].property, "session-use-after-close");
    EXPECT_NE(report.findings[0].detail.find("before session open"),
              std::string::npos);
}

TEST(TemporalChecker, ReopenAfterCloseIsLegal)
{
    ExecutionTrace trace;
    trace.append(TraceEventKind::sessionOpen, 0, {});
    trace.append(TraceEventKind::sessionClose, 0, {});
    trace.append(TraceEventKind::sessionOpen, 0, {});
    trace.append(TraceEventKind::transportExchange, 0, {}, 1);
    EXPECT_TRUE(checkTemporal(trace).ok());
}

TEST(TemporalChecker, MetricsArithmeticIsChecked)
{
    sea::ServiceMetrics bad;
    bad.submitted = 3;
    bad.completed = 5; // more completions than submissions
    const TemporalReport report = lintMetrics(bad);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.findings[0].property, "metrics-accounting");

    sea::ServiceMetrics pipelined;
    pipelined.submitted = 4;
    pipelined.completed = 4;
    pipelined.launches = 4;
    pipelined.auditCommands = 4;
    pipelined.auditExchanges = 1; // coalesced: legal
    EXPECT_TRUE(lintMetrics(pipelined).ok());

    pipelined.auditExchanges = 9; // more exchanges than commands: not
    EXPECT_FALSE(lintMetrics(pipelined).ok());
}

} // namespace
} // namespace mintcb::verify
