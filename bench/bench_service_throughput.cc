/**
 * @file
 * Execution-service throughput on the recommended hardware: PALs per
 * simulated second as the PAL-core count grows (the multiprogramming
 * win SLAUNCH buys, Section 5.7), plus the TPM-traffic optimizations --
 * command pipelining and transport-session resumption -- and a
 * byte-level determinism check over the full request/response path.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "sea/service.hh"
#include "support/benchutil.hh"
#include "verify/race.hh"
#include "verify/temporal.hh"
#include "verify/trace.hh"

using namespace mintcb;
using machine::Machine;
using machine::PlatformId;

namespace
{

constexpr int workloadPals = 16;
constexpr Duration perPalCompute = Duration::millis(40);

/** Sharded host-parallel workload: enough PALs to spread across the
 *  service's 8 virtual shards, each requesting a quote so every shard
 *  campaign carries real host work (an RSA sign per PAL plus the
 *  shard's session RSA exchange). */
constexpr int shardedPals = 64;
constexpr Duration shardedCompute = Duration::millis(10);

/** --workers N: cap for the host-parallel sweep (default 8). */
unsigned maxWorkers = 8;

/** --check: run every runWorkload() campaign under the happens-before
 *  race detector and the temporal trace checker; any finding aborts the
 *  bench with a nonzero exit. */
bool checkMode = false;
std::uint64_t checkedRuns = 0;

void
failCheck(const std::string &what)
{
    std::fprintf(stderr, "--check FAILED: %s\n", what.c_str());
    std::exit(1);
}

void
verifyRun(const verify::HbRaceDetector &detector,
          const verify::ExecutionTrace &trace,
          const sea::ServiceMetrics &metrics)
{
    // A detector that saw no sync edge passes any workload that shares
    // no page; demand that it watched the run.
    if (detector.syncEvents() == 0)
        failCheck("race detector saw no sync events");
    if (!detector.races().empty())
        failCheck(detector.str());
    if (const auto t = verify::checkTemporal(trace); !t.ok())
        failCheck(t.str());
    if (const auto m = verify::lintMetrics(metrics); !m.ok())
        failCheck(m.str());
    ++checkedRuns;
}

sea::PalRequest
workerRequest(int i)
{
    sea::PalRequest req(sea::Pal::fromLogic(
        "svc-worker-" + std::to_string(i), 4 * 1024,
        [](sea::PalContext &) { return okStatus(); }));
    req.slicedCompute = perPalCompute;
    return req;
}

/** Run the standard workload with @p pal_cores PAL-eligible cores on
 *  the 8-core server preset; returns the service for metric reads. */
sea::ServiceMetrics
runWorkload(std::uint32_t pal_cores, bool audit, std::uint64_t seed = 0)
{
    Machine m = Machine::forPlatform(PlatformId::recServer, seed);
    sea::ServiceConfig config;
    config.quantum = Duration::millis(4);
    config.legacyCpus =
        static_cast<std::uint32_t>(m.cpuCount()) - pal_cores;
    config.auditTrail = audit;
    sea::ExecutionService svc(m, config);

    verify::ExecutionTrace trace;
    std::optional<verify::TraceRecorder> recorder;
    std::optional<verify::HbRaceDetector> detector;
    if (checkMode) {
        recorder.emplace(trace);
        recorder->attach(svc);
        detector.emplace(m.cpuCount());
        detector->attach(m.memctrl());
        detector->attach(svc.executive());
    }

    for (int i = 0; i < workloadPals; ++i) {
        auto id = svc.submit(workerRequest(i));
        if (!id.ok())
            std::abort();
    }
    if (!svc.drain().ok())
        std::abort();
    if (checkMode)
        verifyRun(*detector, trace, svc.metrics());
    return svc.metrics();
}

void
scalingTable()
{
    benchutil::heading(
        "Execution-service scaling: 16 x 40 ms PALs, 8-core server, "
        "1 -> 4 PAL cores (audit off: pure scheduling)");

    double base = 0.0;
    double best = 0.0;
    for (std::uint32_t cores : {1u, 2u, 4u}) {
        const sea::ServiceMetrics metrics =
            runWorkload(cores, /*audit=*/false);
        const double throughput = metrics.palsPerSimSecond();
        benchutil::rowSimOnly(
            std::to_string(cores) + " PAL core(s), PALs/sim-second",
            throughput, "PAL/s");
        if (cores == 1)
            base = throughput;
        best = throughput;
    }
    benchutil::check("1 -> 4 PAL cores scales throughput >= 2x",
                     best >= 2.0 * base);
}

void
pipeliningTable()
{
    benchutil::heading("TPM command pipelining: audit-trail extends per "
                       "transport exchange");

    const sea::ServiceMetrics batched = runWorkload(4, /*audit=*/true);
    Machine m = Machine::forPlatform(PlatformId::recServer);
    sea::ServiceConfig serial_config;
    serial_config.quantum = Duration::millis(4);
    serial_config.legacyCpus = 4;
    serial_config.pipelineTpm = false;
    sea::ExecutionService serial(m, serial_config);
    for (int i = 0; i < workloadPals; ++i) {
        if (!serial.submit(workerRequest(i)).ok())
            std::abort();
    }
    if (!serial.drain().ok())
        std::abort();

    benchutil::rowSimOnly("pipelined: commands per exchange",
                          batched.coalescingRatio(), "cmds");
    benchutil::rowSimOnly("serial: commands per exchange",
                          serial.metrics().coalescingRatio(), "cmds");
    benchutil::rowSimOnly("pipelined busy time",
                          batched.busy.toMillis(), "ms");
    benchutil::rowSimOnly("serial busy time",
                          serial.metrics().busy.toMillis(), "ms");
    benchutil::check("pipelining coalesces the whole drain into one "
                     "exchange",
                     batched.coalescingRatio() ==
                         static_cast<double>(workloadPals));
    benchutil::check("pipelining shortens the drain",
                     batched.busy < serial.metrics().busy);
}

void
sessionReuseTable()
{
    benchutil::heading("Transport-session resumption across drains "
                       "(fresh RSA key exchange vs ticket)");

    auto two_drains = [](bool reuse) {
        Machine m = Machine::forPlatform(PlatformId::recServer);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        config.reuseTransportSession = reuse;
        sea::ExecutionService svc(m, config);
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < 4; ++i) {
                if (!svc.submit(workerRequest(i)).ok())
                    std::abort();
            }
            if (!svc.drain().ok())
                std::abort();
        }
        return svc.metrics();
    };

    const sea::ServiceMetrics resumed = two_drains(true);
    const sea::ServiceMetrics fresh = two_drains(false);
    benchutil::rowSimOnly("with resumption: busy time",
                          resumed.busy.toMillis(), "ms");
    benchutil::rowSimOnly("fresh key exchange each drain: busy time",
                          fresh.busy.toMillis(), "ms");
    benchutil::check("resumption skips the second RSA key exchange",
                     resumed.sessionsResumed == 1 &&
                         fresh.sessionsAccepted == 2);
    benchutil::check("resumption saves hundreds of milliseconds",
                     fresh.busy - resumed.busy >
                         Duration::millis(300));
}

/**
 * The telemetry layer promises zero simulated-time overhead: observers
 * read clocks, they never advance them. Prove it by running the same
 * seeded workload bare and with a full TelemetrySession attached and
 * demanding identical busy time and byte-identical encoded reports.
 */
void
telemetryOverheadTable()
{
    benchutil::heading("Telemetry overhead: spans + metrics attached "
                       "must not move simulated time");

    auto run = [](bool telemetry) {
        Machine m = Machine::forPlatform(PlatformId::recServer, 42);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        config.auditTrail = true;
        sea::ExecutionService svc(m, config);
        std::optional<obs::SpanTracer> tracer;
        std::optional<obs::MetricsRegistry> registry;
        std::optional<obs::TelemetrySession> session;
        if (telemetry) {
            tracer.emplace();
            registry.emplace();
            session.emplace(m, *tracer, *registry);
            session->attach(svc);
        }
        for (int i = 0; i < workloadPals; ++i) {
            if (!svc.submit(workerRequest(i)).ok())
                std::abort();
        }
        auto reports = svc.drain();
        if (!reports.ok())
            std::abort();
        Bytes all;
        for (const sea::ExecutionReport &r : *reports) {
            const Bytes wire = r.encode();
            all.insert(all.end(), wire.begin(), wire.end());
        }
        std::size_t spans = 0;
        if (session) {
            session->detach();
            spans = tracer->spans().size();
        }
        return std::make_pair(svc.metrics().busy,
                              std::make_pair(std::move(all), spans));
    };

    const auto [plainBusy, plainRest] = run(false);
    const auto [tracedBusy, tracedRest] = run(true);
    benchutil::rowSimOnly("busy time, bare", plainBusy.toMillis(), "ms");
    benchutil::rowSimOnly("busy time, telemetry attached",
                          tracedBusy.toMillis(), "ms");
    benchutil::rowSimOnly("spans recorded meanwhile",
                          static_cast<double>(tracedRest.second), "");
    benchutil::check("telemetry leaves simulated time untouched",
                     plainBusy == tracedBusy);
    benchutil::check("telemetry leaves report bytes untouched",
                     plainRest.first == tracedRest.first);
    benchutil::check("telemetry actually recorded spans",
                     tracedRest.second > 0);
}

/** One sharded drain at @p workers host threads: wall-clock time of
 *  drain() itself, the concatenated encoded reports, and the
 *  reconciled simulated busy time. */
struct HostRun
{
    double wallMs = 0.0;
    Bytes wire;
    Duration busy;
    std::uint64_t steals = 0;
};

HostRun
runSharded(std::uint32_t workers)
{
    Machine m = Machine::forPlatform(PlatformId::recServer, 42);
    sea::ServiceConfig config;
    config.quantum = Duration::millis(4);
    config.legacyCpus = 4;
    config.workers = workers;
    sea::ExecutionService svc(m, config);
    for (int i = 0; i < shardedPals; ++i) {
        sea::PalRequest req(sea::Pal::fromLogic(
            "shard-worker-" + std::to_string(i), 4 * 1024,
            [](sea::PalContext &) { return okStatus(); }));
        req.slicedCompute = shardedCompute;
        req.wantQuote = true;
        if (!svc.submit(std::move(req)).ok())
            std::abort();
    }

    HostRun run;
    const auto wall_start = std::chrono::steady_clock::now();
    auto reports = svc.drain();
    const auto wall_end = std::chrono::steady_clock::now();
    if (!reports.ok())
        std::abort();
    run.wallMs = std::chrono::duration<double, std::milli>(
                     wall_end - wall_start)
                     .count();
    for (const sea::ExecutionReport &r : *reports) {
        const Bytes wire = r.encode();
        run.wire.insert(run.wire.end(), wire.begin(), wire.end());
    }
    run.busy = svc.metrics().busy;
    run.steals = svc.poolStats().steals;
    return run;
}

/**
 * The tentpole claim: worker count changes wall-clock time only. The
 * byte-identity and simulated-busy checks are host-independent and
 * always blocking; the >= 4x speedup check only gates on hosts with at
 * least 8 hardware threads (elsewhere the measured speedups are still
 * reported, labeled "host" so the bench-regression gate skips them).
 */
void
hostParallelTable()
{
    benchutil::heading(
        "Host-parallel sharded drains: " +
        std::to_string(shardedPals) +
        " quoted PALs over 8 shards, work-stealing worker pool "
        "(wall-clock rows are host-dependent)");

    std::vector<unsigned> counts;
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        if (w <= maxWorkers)
            counts.push_back(w);
    }
    if (counts.empty() || counts.back() != maxWorkers)
        counts.push_back(maxWorkers);

    std::vector<HostRun> runs;
    for (unsigned w : counts) {
        runs.push_back(runSharded(w));
        benchutil::rowSimOnly("host wall ms, " + std::to_string(w) +
                                  " worker(s)",
                              runs.back().wallMs, "ms");
        benchutil::counterDelta("host_wall_ms_w" + std::to_string(w),
                                runs.back().wallMs);
    }
    benchutil::rowSimOnly("host steals at max workers",
                          static_cast<double>(runs.back().steals), "");
    benchutil::rowSimOnly("sharded drain busy time (simulated)",
                          runs.front().busy.toMillis(), "ms");
    benchutil::counterDelta("sharded_busy_ms",
                            runs.front().busy.toMillis());

    bool identical = true;
    bool busy_identical = true;
    for (const HostRun &run : runs) {
        identical = identical && run.wire == runs.front().wire;
        busy_identical = busy_identical && run.busy == runs.front().busy;
    }
    benchutil::check("reports byte-identical across every worker count",
                     identical);
    benchutil::check("simulated busy time identical across every "
                     "worker count",
                     busy_identical);

    const unsigned hw = std::thread::hardware_concurrency();
    const double speedup = runs.back().wallMs > 0.0
                               ? runs.front().wallMs / runs.back().wallMs
                               : 0.0;
    benchutil::rowSimOnly("host hardware threads",
                          static_cast<double>(hw), "");
    benchutil::rowSimOnly("host speedup, max workers vs 1", speedup,
                          "x");
    benchutil::counterDelta("host_speedup_max", speedup);
    if (hw >= 8 && maxWorkers >= 8) {
        benchutil::check("8 workers >= 4x wall-clock over 1 worker",
                         speedup >= 4.0);
    } else {
        std::printf("  (speedup gate skipped: %u hardware thread(s) or "
                    "--workers %u < 8)\n",
                    hw, maxWorkers);
    }
}

/** --json extras: per-request latency percentiles and counter deltas
 *  from one instrumented 4-core drain. */
void
recordJsonDetail()
{
    const sea::ServiceMetrics metrics = runWorkload(4, /*audit=*/true);
    benchutil::histogram("queue_wait", metrics.queueWait);
    benchutil::histogram("turnaround", metrics.turnaround);
    benchutil::histogram("compute", metrics.compute);
    benchutil::counterDelta("submitted",
                            static_cast<double>(metrics.submitted));
    benchutil::counterDelta("completed",
                            static_cast<double>(metrics.completed));
    benchutil::counterDelta("launches",
                            static_cast<double>(metrics.launches));
    benchutil::counterDelta("preemptions",
                            static_cast<double>(metrics.preemptions));
    benchutil::counterDelta("audit_commands",
                            static_cast<double>(metrics.auditCommands));
    benchutil::counterDelta("audit_exchanges",
                            static_cast<double>(metrics.auditExchanges));
    benchutil::counterDelta("busy_ms", metrics.busy.toMillis());
}

void
determinismCheck()
{
    benchutil::heading("Determinism: byte-identical reports across two "
                       "same-seed runs (full service path, audit on)");

    auto encode_all = [](std::uint64_t seed) {
        Machine m = Machine::forPlatform(PlatformId::recServer, seed);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        sea::ExecutionService svc(m, config);
        for (int i = 0; i < workloadPals; ++i) {
            sea::PalRequest req = workerRequest(i);
            req.wantQuote = (i % 4 == 0);
            if (!svc.submit(std::move(req)).ok())
                std::abort();
        }
        auto reports = svc.drain();
        if (!reports.ok())
            std::abort();
        Bytes all;
        for (const sea::ExecutionReport &r : *reports) {
            const Bytes wire = r.encode();
            all.insert(all.end(), wire.begin(), wire.end());
        }
        return all;
    };

    const Bytes first = encode_all(7);
    const Bytes second = encode_all(7);
    benchutil::rowSimOnly("encoded report bytes per run",
                          static_cast<double>(first.size()), "B");
    benchutil::check("two same-seed runs encode byte-identically",
                     first == second);
}

void
BM_ServiceDrain(benchmark::State &state)
{
    const auto pal_cores = static_cast<std::uint32_t>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const sea::ServiceMetrics metrics =
            runWorkload(pal_cores, /*audit=*/true, seed++);
        state.SetIterationTime(metrics.busy.toSeconds());
    }
    state.counters["pals_per_sim_s"] = benchmark::Counter(0);
    const sea::ServiceMetrics metrics =
        runWorkload(pal_cores, /*audit=*/true, 1234);
    state.counters["pals_per_sim_s"] =
        benchmark::Counter(metrics.palsPerSimSecond());
}

} // namespace

BENCHMARK(BM_ServiceDrain)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(5);

int
main(int argc, char **argv)
{
    benchutil::stripJsonFlag(&argc, argv);
    // Strip --check and --workers N before google-benchmark sees (and
    // rejects) them.
    for (int i = 1; i < argc; ++i) {
        int eat = 0;
        if (std::strcmp(argv[i], "--check") == 0) {
            checkMode = true;
            eat = 1;
        } else if (std::strcmp(argv[i], "--workers") == 0 &&
                   i + 1 < argc) {
            maxWorkers = static_cast<unsigned>(
                std::strtoul(argv[i + 1], nullptr, 10));
            eat = 2;
        } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
            maxWorkers = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 10));
            eat = 1;
        }
        if (eat > 0) {
            for (int j = i; j + eat < argc; ++j)
                argv[j] = argv[j + eat];
            argc -= eat;
            --i;
        }
    }
    if (maxWorkers == 0)
        maxWorkers = 1;

    scalingTable();
    pipeliningTable();
    sessionReuseTable();
    telemetryOverheadTable();
    determinismCheck();
    hostParallelTable();
    if (benchutil::jsonMode())
        recordJsonDetail();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (checkMode) {
        benchutil::check("--check: " + std::to_string(checkedRuns) +
                             " instrumented campaigns race-free and "
                             "temporally clean",
                         checkedRuns > 0);
    }
    return benchutil::writeJsonArtifact() ? 0 : 1;
}
