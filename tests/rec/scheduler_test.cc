/**
 * @file
 * OS scheduler tests: multiprogramming PALs with legacy concurrency
 * (paper Figure 4 and Section 5.7's expected impact).
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "rec/scheduler.hh"
#include "verify/race.hh"

namespace mintcb::rec
{
namespace
{

using machine::Machine;
using machine::PlatformId;

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : machine_(Machine::forPlatform(PlatformId::recTestbed)),
          exec_(machine_, /*sepcr_count=*/4),
          detector_(machine_.cpuCount())
    {
        // Every scheduler test doubles as a happens-before check: all
        // mediated accesses must be ordered by SLAUNCH/SYIELD edges and
        // round barriers.
        detector_.attach(machine_.memctrl());
        detector_.attach(exec_);
    }

    void
    TearDown() override
    {
        EXPECT_TRUE(detector_.races().empty()) << detector_.str();
    }

    PalProgram
    simplePal(const std::string &name, Duration work)
    {
        PalProgram p(sea::Pal::fromLogic(
            name, 4096, [](sea::PalContext &) { return okStatus(); }));
        p.totalCompute = work;
        return p;
    }

    Machine machine_;
    SecureExecutive exec_;
    verify::HbRaceDetector detector_;
};

TEST_F(SchedulerTest, SinglePalCompletes)
{
    OsScheduler sched(exec_, Duration::millis(1));
    ASSERT_TRUE(sched.add(simplePal("solo", Duration::millis(5))).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->completions.size(), 1u);
    EXPECT_TRUE(stats->completions[0].result.ok());
    // 5 ms of work in 1 ms quanta: 1 measured launch + 4 resumes,
    // 4 yields.
    EXPECT_EQ(stats->completions[0].launches, 5u);
    EXPECT_EQ(stats->completions[0].yields, 4u);
}

TEST_F(SchedulerTest, MorePalsThanCpusAllComplete)
{
    // 4-core machine, 1 CPU reserved for legacy => 3 PAL CPUs, 6 PALs.
    OsScheduler sched(exec_, Duration::millis(1));
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(
            sched.add(simplePal("pal-" + std::to_string(i),
                                Duration::millis(3))).ok());
    }
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->completions.size(), 6u);
    for (const auto &c : stats->completions)
        EXPECT_TRUE(c.result.ok()) << c.name;
}

TEST_F(SchedulerTest, MorePalsThanSePcrsCompleteViaRetry)
{
    // 4 sePCRs but 7 concurrent PALs: launches beyond the limit retry
    // until earlier PALs exit and free their sePCRs.
    OsScheduler sched(exec_, Duration::millis(1));
    for (int i = 0; i < 7; ++i) {
        ASSERT_TRUE(
            sched.add(simplePal("p" + std::to_string(i),
                                Duration::millis(2))).ok());
    }
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->completions.size(), 7u);
    EXPECT_GT(stats->slaunchRetries, 0u);
}

TEST_F(SchedulerTest, LegacyWorkProceedsConcurrently)
{
    OsScheduler sched(exec_, Duration::millis(1));
    ASSERT_TRUE(
        sched.add(simplePal("busy", Duration::millis(20))).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    // CPU 0 (legacy) retired work for essentially the whole makespan --
    // on today's hardware it would have been frozen.
    const double legacy_ns =
        static_cast<double>(machine_.cpu(0).legacyWorkDone()) /
        machine_.spec().freqGhz;
    EXPECT_GT(legacy_ns, stats->makespan.toNanos() * 0.95);
}

TEST_F(SchedulerTest, ContextSwitchesAreSubMicrosecond)
{
    OsScheduler sched(exec_, Duration::millis(1));
    ASSERT_TRUE(
        sched.add(simplePal("switchy", Duration::millis(50))).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_GT(stats->contextSwitches, 90u); // ~49 yields + ~49 resumes
    const Duration per_switch =
        stats->contextSwitchTime /
        static_cast<std::int64_t>(stats->contextSwitches);
    // Section 5.7: ~0.6 us, six orders below the TPM-based switch.
    EXPECT_LT(per_switch, Duration::micros(1.2));
    EXPECT_GT(per_switch, Duration::nanos(100));
}

TEST_F(SchedulerTest, HooksSealAndUnsealAcrossRuns)
{
    // A PAL seals state in run 1; a second run of the same PAL unseals
    // it (possibly bound to a different sePCR handle).
    tpm::SealedBlob saved;
    PalProgram writer = simplePal("stateful", Duration::millis(2));
    writer.onFinish = [&saved](PalHooks &h) -> Status {
        auto blob = h.seal(asciiBytes("persistent state"));
        if (!blob)
            return blob.error();
        saved = blob.take();
        return okStatus();
    };
    OsScheduler sched1(exec_, Duration::millis(1));
    ASSERT_TRUE(sched1.add(writer).ok());
    ASSERT_TRUE(sched1.runAll().ok());

    Bytes recovered;
    PalProgram reader = simplePal("stateful", Duration::millis(1));
    reader.onStart = [&saved, &recovered](PalHooks &h) -> Status {
        auto state = h.unseal(saved);
        if (!state)
            return state.error();
        recovered = state.take();
        return okStatus();
    };
    OsScheduler sched2(exec_, Duration::millis(1));
    ASSERT_TRUE(sched2.add(reader).ok());
    auto stats = sched2.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->completions[0].result.ok());
    EXPECT_EQ(recovered, asciiBytes("persistent state"));
}

TEST_F(SchedulerTest, WrongPalCannotUnsealViaHooks)
{
    tpm::SealedBlob saved;
    PalProgram owner = simplePal("owner-pal", Duration::millis(1));
    owner.onFinish = [&saved](PalHooks &h) -> Status {
        auto blob = h.seal(asciiBytes("secret"));
        if (!blob)
            return blob.error();
        saved = blob.take();
        return okStatus();
    };
    OsScheduler sched1(exec_, Duration::millis(1));
    ASSERT_TRUE(sched1.add(owner).ok());
    ASSERT_TRUE(sched1.runAll().ok());

    PalProgram thief = simplePal("thief-pal", Duration::millis(1));
    thief.onStart = [&saved](PalHooks &h) -> Status {
        auto state = h.unseal(saved);
        if (!state)
            return state.error();
        return okStatus();
    };
    OsScheduler sched2(exec_, Duration::millis(1));
    ASSERT_TRUE(sched2.add(thief).ok());
    auto stats = sched2.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->completions.size(), 1u);
    ASSERT_FALSE(stats->completions[0].result.ok());
    EXPECT_EQ(stats->completions[0].result.error().code,
              Errc::permissionDenied);
}

TEST_F(SchedulerTest, QuoteOnExitProducesVerifiableQuotes)
{
    OsScheduler sched(exec_, Duration::millis(1));
    sched.setQuoteOnExit(true);
    ASSERT_TRUE(sched.add(simplePal("attested", Duration::millis(2))).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->completions[0].quoted);
    const tpm::TpmQuote &q = stats->completions[0].quote;
    EXPECT_TRUE(
        tpm::verifyQuote(machine_.tpm().aikPublic(), q, q.nonce).ok());
}

TEST_F(SchedulerTest, AbortWithoutDeadlineIsNotAMissedDeadline)
{
    OsScheduler sched(exec_, Duration::millis(1));
    PalProgram doomed = simplePal("doomed", Duration::millis(2));
    doomed.onStart = [](PalHooks &) -> Status {
        return Error(Errc::permissionDenied, "refuses to start");
    };
    ASSERT_TRUE(sched.add(doomed).ok());
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->completions.size(), 1u);
    EXPECT_FALSE(stats->completions[0].result.ok());
    // PalCompletion doc: deadlineMet is false iff a deadline was set
    // and missed -- this PAL never had one.
    EXPECT_TRUE(stats->completions[0].deadlineMet);
}

TEST_F(SchedulerTest, SecbBeyondRamIsRefusedAndEnqueuesNothing)
{
    OsScheduler sched(exec_, Duration::millis(1));
    // Page counts whose sum with the base would wrap: refused by the
    // range check before any page is listed or written.
    for (std::size_t pages : {std::size_t{0xFFFFFFFF}, SIZE_MAX,
                              SIZE_MAX - 1}) {
        PalProgram greedy = simplePal("greedy", Duration::millis(1));
        greedy.dataPages = pages;
        auto idx = sched.add(greedy);
        ASSERT_FALSE(idx.ok());
        EXPECT_EQ(idx.error().code, Errc::resourceExhausted);
    }
    // The refused programs took no index and no memory: the next one
    // is task 0 and runs.
    auto idx = sched.add(simplePal("modest", Duration::millis(1)));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, 0u);
    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->completions.size(), 1u);
    EXPECT_EQ(stats->completions[0].name, "modest");
    EXPECT_TRUE(stats->completions[0].result.ok());
}

TEST_F(SchedulerTest, AllCpusReservedForLegacyIsAnError)
{
    OsScheduler sched(exec_, Duration::millis(1), /*legacy_cpus=*/4);
    ASSERT_TRUE(sched.add(simplePal("p", Duration::millis(1))).ok());
    auto stats = sched.runAll();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().code, Errc::invalidArgument);
}

TEST_F(SchedulerTest, MakespanScalesWithParallelism)
{
    // Same aggregate PAL work, 1 vs 3 PAL CPUs: wall time shrinks.
    // Work per PAL is sized so compute dominates the (TPM-serialized)
    // one-time measurements.
    Machine m1 = Machine::forPlatform(PlatformId::recTestbed);
    SecureExecutive e1(m1, 8);
    OsScheduler narrow(e1, Duration::millis(4), /*legacy_cpus=*/3);
    Machine m3 = Machine::forPlatform(PlatformId::recTestbed);
    SecureExecutive e3(m3, 8);
    OsScheduler wide(e3, Duration::millis(4), /*legacy_cpus=*/1);
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(narrow.add(simplePal("n" + std::to_string(i),
                                         Duration::millis(40))).ok());
        ASSERT_TRUE(wide.add(simplePal("w" + std::to_string(i),
                                       Duration::millis(40))).ok());
    }
    auto s1 = narrow.runAll();
    auto s3 = wide.runAll();
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s3.ok());
    EXPECT_LT(s3->makespan * 1.5, s1->makespan);
}

} // namespace
} // namespace mintcb::rec
