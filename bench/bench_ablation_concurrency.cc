/**
 * @file
 * Ablation for the paper's Figure 4 execution model: how much legacy
 * throughput survives while secure work runs, today vs recommended, as
 * the number of PALs grows. Today's late launch halts every core
 * (Section 4.2); SLAUNCH confines each PAL to one core.
 */

#include <benchmark/benchmark.h>

#include "rec/scheduler.hh"
#include "sea/session.hh"
#include "support/benchutil.hh"

using namespace mintcb;
using machine::Machine;
using machine::PlatformId;

namespace
{

constexpr Duration workPerPal = Duration::millis(10);

struct Outcome
{
    double makespan_ms;
    double legacy_frac; //!< legacy work retired / (cpus x makespan)
};

Outcome
runToday(int pals, std::uint64_t seed)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
    sea::SeaDriver driver(m);
    for (int i = 0; i < pals; ++i) {
        const sea::Pal pal = sea::Pal::fromLogic(
            "conc-pal-" + std::to_string(i), 4096,
            [](sea::PalContext &ctx) {
                ctx.compute(workPerPal);
                return okStatus();
            });
        driver.run(sea::PalRequest(pal));
    }
    std::uint64_t legacy = 0;
    for (CpuId c = 0; c < m.cpuCount(); ++c)
        legacy += m.cpu(c).legacyWorkDone();
    const double makespan = m.now().sinceEpoch().toMillis();
    const double capacity = makespan * 1e6 *
        static_cast<double>(m.cpuCount()) * m.spec().freqGhz;
    return {makespan, capacity > 0 ? legacy / capacity : 0.0};
}

Outcome
runRecommended(int pals, std::uint64_t seed)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
    rec::SecureExecutive exec(m, 8);
    rec::OsScheduler sched(exec, Duration::millis(1), /*legacy_cpus=*/1);
    for (int i = 0; i < pals; ++i) {
        rec::PalProgram prog(sea::Pal::fromLogic(
            "conc-pal-" + std::to_string(i), 4096,
            [](sea::PalContext &) { return okStatus(); }));
        prog.totalCompute = workPerPal;
        sched.add(prog);
    }
    auto stats = sched.runAll();
    const double makespan = stats->makespan.toMillis();
    const double capacity = makespan * 1e6 *
        static_cast<double>(m.cpuCount()) * m.spec().freqGhz;
    return {makespan,
            capacity > 0 ? stats->legacyWorkUnits / capacity : 0.0};
}

void
BM_Today(benchmark::State &state)
{
    const int pals = static_cast<int>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state)
        state.SetIterationTime(runToday(pals, seed++).makespan_ms / 1e3);
}

void
BM_Recommended(benchmark::State &state)
{
    const int pals = static_cast<int>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        state.SetIterationTime(
            runRecommended(pals, seed++).makespan_ms / 1e3);
    }
}

void
reproductionTable()
{
    benchutil::heading("Concurrency ablation (Figure 4 model): 4-core "
                       "platform, 10 ms of secure work per PAL");

    std::printf("\n  %5s  %28s  %28s\n", "PALs",
                "today: makespan / legacy", "rec: makespan / legacy");
    double today8 = 0, rec8 = 0;
    for (int pals : {1, 2, 4, 8, 16}) {
        const Outcome today = runToday(pals, pals);
        const Outcome rec = runRecommended(pals, pals);
        std::printf("  %5d  %14.1f ms / %6.1f%%  %14.1f ms / %6.1f%%\n",
                    pals, today.makespan_ms, today.legacy_frac * 100,
                    rec.makespan_ms, rec.legacy_frac * 100);
        if (pals == 8) {
            today8 = today.makespan_ms;
            rec8 = rec.makespan_ms;
        }
    }

    std::printf("\nShape checks:\n");
    benchutil::check("today: platform retires ZERO legacy work",
                     runToday(4, 99).legacy_frac == 0.0);
    benchutil::check(
        "recommended, 1 PAL: the 3 idle cores run legacy (~75%)",
        runRecommended(1, 99).legacy_frac > 0.70);
    benchutil::check(
        "recommended, 4 PALs: legacy still makes real progress (>35%)",
        runRecommended(4, 99).legacy_frac > 0.35);
    // Both designs pay the same 8 TPM-serialized one-time measurements
    // (~12 ms each); the recommendation wins on everything else, so the
    // makespan gain at this work size is ~1.6x (it grows with
    // compute-to-measurement ratio, and the legacy-throughput win is
    // categorical).
    benchutil::check("recommended beats today by >1.5x at 8 PALs",
                     rec8 * 1.5 < today8);
    std::printf("      note: the one-time PAL measurement serializes on "
                "the TPM, so very\n      high PAL counts are "
                "measurement-bound -- exactly why the sePCR count\n"
                "      bounds useful concurrency (Section 5.4).\n");
}

} // namespace

BENCHMARK(BM_Today)->Arg(1)->Arg(4)->Arg(8)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(BM_Recommended)->Arg(1)->Arg(4)->Arg(8)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(5);

int
main(int argc, char **argv)
{
    benchutil::stripJsonFlag(&argc, argv);
    reproductionTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return benchutil::writeJsonArtifact() ? 0 : 1;
}
