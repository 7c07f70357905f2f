/**
 * @file
 * Scenario: the paper's Figure 4 -- many mutually-untrusting PALs
 * multiprogrammed alongside a legacy OS, on the recommended hardware.
 *
 * Runs the same secure workload two ways:
 *   (a) SEA on today's hardware: sessions serialize and the whole
 *       platform stalls;
 *   (b) the recommended SLAUNCH architecture: PALs share cores with the
 *       OS, context switches cost ~0.5 us.
 */

#include <cstdio>

#include "rec/scheduler.hh"
#include "sea/palgen.hh"

using namespace mintcb;

int
main()
{
    constexpr int pal_count = 6;
    const Duration work_per_pal = Duration::millis(25);

    // ---- (a) Today's hardware ------------------------------------------
    auto today =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::SeaDriver driver(today);
    std::uint64_t legacy_today = 0;
    for (int i = 0; i < pal_count; ++i) {
        const sea::Pal pal = sea::Pal::fromLogic(
            "today-pal-" + std::to_string(i), 4 * 1024,
            [work_per_pal](sea::PalContext &ctx) {
                ctx.compute(work_per_pal);
                return okStatus();
            });
        auto session = driver.run(sea::PalRequest(pal));
        if (!session.ok()) {
            std::fprintf(stderr, "session failed: %s\n",
                         session.error().str().c_str());
            return 1;
        }
    }
    for (CpuId c = 0; c < today.cpuCount(); ++c)
        legacy_today += today.cpu(c).legacyWorkDone();
    const Duration makespan_today = today.now().sinceEpoch();

    // ---- (b) Recommended architecture -----------------------------------
    auto rec_machine =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    rec::SecureExecutive exec(rec_machine, /*sepcr_count=*/8);
    rec::OsScheduler sched(exec, /*quantum=*/Duration::millis(1),
                           /*legacy_cpus=*/1);
    for (int i = 0; i < pal_count; ++i) {
        rec::PalProgram prog(sea::Pal::fromLogic(
            "rec-pal-" + std::to_string(i), 4096,
            [](sea::PalContext &) { return okStatus(); }));
        prog.totalCompute = work_per_pal;
        if (auto r = sched.add(prog); !r.ok()) {
            std::fprintf(stderr, "add failed: %s\n",
                         r.error().str().c_str());
            return 1;
        }
    }
    auto stats = sched.runAll();
    if (!stats.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     stats.error().str().c_str());
        return 1;
    }

    // ---- Report ----------------------------------------------------------
    std::printf("%d PALs x %s of secure work, on a 4-core machine:\n\n",
                pal_count, work_per_pal.str().c_str());
    std::printf("                         today (SEA)    recommended\n");
    std::printf("  makespan              %12s   %12s\n",
                makespan_today.str().c_str(),
                stats->makespan.str().c_str());
    std::printf("  legacy work units     %12llu   %12llu\n",
                static_cast<unsigned long long>(legacy_today),
                static_cast<unsigned long long>(stats->legacyWorkUnits));
    std::printf("  context switches      %12s   %12llu\n", "n/a",
                static_cast<unsigned long long>(stats->contextSwitches));
    if (stats->contextSwitches) {
        const Duration per = stats->contextSwitchTime /
            static_cast<std::int64_t>(stats->contextSwitches);
        std::printf("  per-switch cost       %12s   %12s\n", "0.2-1 s",
                    per.str().c_str());
    }
    std::printf("\nOn today's hardware the OS retired ZERO work during "
                "PAL execution\n(every core halts); with SLAUNCH the "
                "legacy OS ran the whole time.\n");
    return 0;
}
