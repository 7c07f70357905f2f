/**
 * @file
 * Ablation for Section 5.4: "The number of sePCRs present in a TPM
 * establishes the limit for the number of concurrently executing PALs."
 * Fixes the workload (12 PALs on a 4-core machine) and sweeps the sePCR
 * count, showing where concurrency stops paying.
 */

#include <benchmark/benchmark.h>

#include "rec/scheduler.hh"
#include "support/benchutil.hh"

using namespace mintcb;
using machine::Machine;
using machine::PlatformId;

namespace
{

constexpr int palCount = 12;
constexpr Duration workPerPal = Duration::millis(8);

struct Outcome
{
    double makespan_ms;
    std::uint64_t retries;
};

Outcome
run(std::size_t sepcrs, std::uint64_t seed)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
    rec::SecureExecutive exec(m, sepcrs);
    rec::OsScheduler sched(exec, Duration::millis(1), /*legacy_cpus=*/1);
    for (int i = 0; i < palCount; ++i) {
        rec::PalProgram prog(sea::Pal::fromLogic(
            "sweep-" + std::to_string(i), 4096,
            [](sea::PalContext &) { return okStatus(); }));
        prog.totalCompute = workPerPal;
        sched.add(prog);
    }
    auto stats = sched.runAll();
    return {stats->makespan.toMillis(), stats->slaunchRetries};
}

void
BM_SePcrSweep(benchmark::State &state)
{
    const auto sepcrs = static_cast<std::size_t>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state)
        state.SetIterationTime(run(sepcrs, seed++).makespan_ms / 1e3);
    state.SetLabel(std::to_string(sepcrs) + " sePCRs");
}

void
reproductionTable()
{
    benchutil::heading("sePCR-count ablation (Section 5.4): 12 PALs x "
                       "8 ms on 3 PAL cores, sweeping the sePCR count");

    std::printf("\n  %8s  %14s  %16s\n", "sePCRs", "makespan",
                "launch retries");
    double one = 0, three = 0, twelve = 0;
    for (std::size_t n : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
        const Outcome o = run(n, n);
        std::printf("  %8zu  %11.1f ms  %16llu\n", n, o.makespan_ms,
                    static_cast<unsigned long long>(o.retries));
        if (n == 1)
            one = o.makespan_ms;
        if (n == 3)
            three = o.makespan_ms;
        if (n == 12)
            twelve = o.makespan_ms;
    }

    std::printf("\nShape checks:\n");
    benchutil::check("1 sePCR serializes the PALs (worst makespan)",
                     one > three && one > twelve);
    benchutil::check(
        "matching sePCRs to PAL-cores (3) captures most of the win",
        three < twelve * 1.35);
    benchutil::check("beyond 2x the PAL cores, extras buy <15%",
                     std::abs(run(6, 99).makespan_ms - twelve) <
                         0.15 * twelve);
    std::printf("      => provisioning sePCRs at ~1-2x the CPU count is "
                "the sweet spot the paper's design implies.\n");
}

} // namespace

BENCHMARK(BM_SePcrSweep)->Arg(1)->Arg(3)->Arg(8)->UseManualTime()
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
