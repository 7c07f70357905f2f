/**
 * @file
 * Happens-before race detector tests: vector-clock algebra, hand-built
 * access/sync sequences with known verdicts, and full scheduler /
 * service workloads that must be race-free.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "rec/scheduler.hh"
#include "sea/service.hh"
#include "verify/race.hh"
#include "verify/trace.hh"

namespace mintcb::verify
{
namespace
{

using machine::Agent;
using machine::Machine;
using machine::PlatformId;

TEST(VectorClock, TickJoinOrder)
{
    VectorClock a(3);
    VectorClock b(3);
    a.tick(0);
    a.tick(0);
    EXPECT_EQ(a.at(0), 2u);
    EXPECT_TRUE(a.ordersAfter(0, 2));
    EXPECT_FALSE(a.ordersAfter(0, 3));
    EXPECT_FALSE(b.ordersAfter(0, 1));

    b.join(a);
    EXPECT_TRUE(b.ordersAfter(0, 2));
    EXPECT_EQ(b.at(1), 0u);
    EXPECT_EQ(b.str(), "[2,0,0]");
}

/** A hand-driven detector: events fed directly through the observer
 *  interface, no machine underneath. */
TEST(HbRaceDetector, UnorderedCrossCpuWriteWriteIsARace)
{
    HbRaceDetector det(2);
    det.onAccess(Agent::forCpu(0), /*page=*/7, 0, 16, /*isWrite=*/true, true);
    det.onAccess(Agent::forCpu(1), /*page=*/7, 0, 16, /*isWrite=*/true, true);
    ASSERT_EQ(det.races().size(), 1u);
    const Race &r = det.races()[0];
    EXPECT_EQ(r.page, 7u);
    EXPECT_EQ(r.firstCpu, 0u);
    EXPECT_TRUE(r.firstIsWrite);
    EXPECT_EQ(r.secondCpu, 1u);
    EXPECT_TRUE(r.secondIsWrite);
    EXPECT_NE(det.str().find("race on page 7"), std::string::npos);
}

TEST(HbRaceDetector, ReadWriteConflictIsARace)
{
    HbRaceDetector det(2);
    det.onAccess(Agent::forCpu(0), 3, 0, 16, /*isWrite=*/false, true);
    det.onAccess(Agent::forCpu(1), 3, 0, 16, /*isWrite=*/true, true);
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_FALSE(det.races()[0].firstIsWrite);
    EXPECT_TRUE(det.races()[0].secondIsWrite);
}

TEST(HbRaceDetector, ConcurrentReadsAreNotARace)
{
    HbRaceDetector det(2);
    det.onAccess(Agent::forCpu(0), 3, 0, 16, false, true);
    det.onAccess(Agent::forCpu(1), 3, 0, 16, false, true);
    EXPECT_TRUE(det.races().empty());
}

TEST(HbRaceDetector, SamePageSameCpuIsNotARace)
{
    HbRaceDetector det(2);
    det.onAccess(Agent::forCpu(0), 3, 0, 16, true, true);
    det.onAccess(Agent::forCpu(0), 3, 0, 16, true, true);
    EXPECT_TRUE(det.races().empty());
}

TEST(HbRaceDetector, DeniedAndDmaAccessesAreIgnored)
{
    HbRaceDetector det(2);
    det.onAccess(Agent::forCpu(0), 3, 0, 16, true, true);
    det.onAccess(Agent::forCpu(1), 3, 0, 16, true, /*granted=*/false);
    det.onAccess(Agent::forDevice(), 3, 0, 16, true, true);
    EXPECT_TRUE(det.races().empty());
    EXPECT_EQ(det.accessesChecked(), 1u);
}

TEST(HbRaceDetector, SecbReleaseAcquireOrdersHandoff)
{
    rec::Secb secb;
    HbRaceDetector det(2);
    // CPU 0 launches, writes, yields (release)...
    det.onPalEvent(rec::ExecEvent::slaunchMeasure, 0, secb);
    det.onAccess(Agent::forCpu(0), 5, 0, 16, true, true);
    det.onPalEvent(rec::ExecEvent::syield, 0, secb);
    // ...CPU 1 resumes the same SECB (acquire) and writes: ordered.
    det.onPalEvent(rec::ExecEvent::slaunchResume, 1, secb);
    det.onAccess(Agent::forCpu(1), 5, 0, 16, true, true);
    EXPECT_TRUE(det.races().empty()) << det.str();
}

TEST(HbRaceDetector, DifferentSecbDoesNotOrder)
{
    rec::Secb a;
    rec::Secb b;
    HbRaceDetector det(2);
    det.onPalEvent(rec::ExecEvent::slaunchMeasure, 0, a);
    det.onAccess(Agent::forCpu(0), 5, 0, 16, true, true);
    det.onPalEvent(rec::ExecEvent::syield, 0, a);
    // CPU 1 synchronizes through an unrelated SECB: still a race.
    det.onPalEvent(rec::ExecEvent::slaunchMeasure, 1, b);
    det.onAccess(Agent::forCpu(1), 5, 0, 16, true, true);
    EXPECT_EQ(det.races().size(), 1u);
}

TEST(HbRaceDetector, BarrierOrdersEveryone)
{
    HbRaceDetector det(3);
    det.onAccess(Agent::forCpu(0), 9, 0, 16, true, true);
    det.onBarrier();
    det.onAccess(Agent::forCpu(1), 9, 0, 16, true, true);
    det.onBarrier();
    det.onAccess(Agent::forCpu(2), 9, 0, 16, false, true);
    EXPECT_TRUE(det.races().empty()) << det.str();
}

TEST(HbRaceDetector, DuplicateRacesAreDeduped)
{
    HbRaceDetector det(2);
    for (int i = 0; i < 10; ++i) {
        det.onAccess(Agent::forCpu(0), 4, 0, 16, true, true);
        det.onAccess(Agent::forCpu(1), 4, 0, 16, true, true);
    }
    // One (page, cpu-pair, kind) signature, reported once.
    EXPECT_EQ(det.races().size(), 2u) << det.str();
    EXPECT_EQ(det.dropped(), 0u);
}

/** The real access path: unsynchronized writes through the controller
 *  are flagged; the observer sees exactly the mediated stream. */
TEST(HbRaceDetector, FlagsUnorderedAccessThroughMemoryController)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    HbRaceDetector det(m.cpuCount());
    det.attach(m.memctrl());

    const Bytes data{0xde, 0xad};
    ASSERT_TRUE(
        m.memctrl().write(Agent::forCpu(0), pageBase(2), data).ok());
    ASSERT_TRUE(
        m.memctrl().write(Agent::forCpu(1), pageBase(2), data).ok());
    EXPECT_EQ(det.races().size(), 1u) << det.str();
    EXPECT_EQ(det.races()[0].page, 2u);
}

TEST(HbRaceDetector, SchedulerWorkloadIsRaceFree)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    rec::SecureExecutive exec(m, 4);
    HbRaceDetector det(m.cpuCount());
    det.attach(m.memctrl());
    det.attach(exec);

    rec::OsScheduler sched(exec, Duration::millis(1),
                           /*legacy_cpus=*/1);
    for (int i = 0; i < 4; ++i) {
        rec::PalProgram prog(sea::Pal::fromLogic(
            "race-pal-" + std::to_string(i), 4096,
            [](sea::PalContext &) { return okStatus(); }));
        prog.totalCompute = Duration::millis(3); // forces preemptions
        ASSERT_TRUE(sched.add(prog).ok());
    }
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->contextSwitches, 0u);
    EXPECT_TRUE(det.races().empty()) << det.str();
    EXPECT_GT(det.accessesChecked(), 0u);
    EXPECT_GT(det.syncEvents(), 0u);
}

TEST(HbRaceDetector, ServiceWorkloadIsRaceFree)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    HbRaceDetector det(m.cpuCount());
    det.attach(m.memctrl());
    det.attach(svc.executive());

    for (int i = 0; i < 6; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "svc-race-" + std::to_string(i), 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = Duration::millis(2);
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports->size(), 6u);
    EXPECT_TRUE(det.races().empty()) << det.str();
}

/** Who shares the executive's sync stream with the detector, in
 *  attach order. */
enum class SyncPeers
{
    detectorThenRecorder,  //!< detector, then TraceRecorder::attach(svc)
    telemetryThenDetector, //!< TelemetrySession, detector, then a recorder
};

class SharedSyncStream : public ::testing::TestWithParam<SyncPeers>
{
};

/** A later attach never displaces an earlier observer: the detector
 *  counts exactly the sync edges the recorder logs, and telemetry
 *  attached before both still opens one PAL slice per SLAUNCH. */
TEST_P(SharedSyncStream, EveryObserverSeesEverySyncEdge)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService svc(m);
    obs::SpanTracer tracer;
    obs::MetricsRegistry metrics;
    obs::TelemetrySession telemetry(m, tracer, metrics);
    HbRaceDetector det(m.cpuCount());
    ExecutionTrace trace;
    TraceRecorder recorder(trace);

    const bool withTelemetry =
        GetParam() == SyncPeers::telemetryThenDetector;
    if (withTelemetry)
        telemetry.attach(svc);
    det.attach(m.memctrl());
    det.attach(svc.executive());
    recorder.attach(svc);

    for (int i = 0; i < 8; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "shared-sync-" + std::to_string(i), 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = Duration::millis(3); // forces preemptions
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    ASSERT_TRUE(svc.drain().ok());

    std::uint64_t syncEdges = 0;
    std::uint64_t launches = 0;
    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEventKind::slaunch:
            ++launches;
            [[fallthrough]];
          case TraceEventKind::syield:
          case TraceEventKind::sfree:
          case TraceEventKind::skill:
          case TraceEventKind::barrier:
            ++syncEdges;
            break;
          default:
            break;
        }
    }
    EXPECT_GT(syncEdges, 0u);
    EXPECT_EQ(det.syncEvents(), syncEdges);
    EXPECT_TRUE(det.races().empty()) << det.str();
    if (withTelemetry) {
        // The recorder joined the service's milestones too; telemetry
        // still draws the drain it attached for.
        std::uint64_t palSlices = 0;
        std::uint64_t drains = 0;
        for (const obs::Span &s : tracer.spans()) {
            palSlices += s.name.rfind("pal:", 0) == 0 ? 1 : 0;
            drains += s.name == "drain" ? 1 : 0;
        }
        EXPECT_EQ(palSlices, launches);
        EXPECT_EQ(drains, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, SharedSyncStream,
    ::testing::Values(SyncPeers::detectorThenRecorder,
                      SyncPeers::telemetryThenDetector),
    [](const ::testing::TestParamInfo<SyncPeers> &info) {
        return info.param == SyncPeers::detectorThenRecorder
                   ? std::string("DetectorThenRecorder")
                   : std::string("TelemetryThenDetector");
    });

TEST(HbRaceDetector, DetachesOnDestruction)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    {
        HbRaceDetector det(m.cpuCount());
        det.attach(m.memctrl());
        EXPECT_TRUE(m.memctrl().accessObservers().contains(&det));
        EXPECT_EQ(m.memctrl().accessObservers().size(), 1u);
    }
    EXPECT_EQ(m.memctrl().accessObservers().size(), 0u);
}

} // namespace
} // namespace mintcb::verify
