/**
 * @file
 * Property-based tests: randomized sweeps over the system's invariants
 * (parameterized gtest, seeded per instance, fully deterministic).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "crypto/keycache.hh"
#include "latelaunch/slb.hh"
#include "machine/memctrl.hh"
#include "rec/scheduler.hh"
#include "tpm/blob.hh"
#include "tpm/tpm.hh"

namespace mintcb
{
namespace
{

// ---- SLB parser fuzz --------------------------------------------------------

class SlbFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SlbFuzz, RandomImagesParseOrRejectWithoutUb)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 1);
    const std::size_t len = rng.nextBelow(256);
    const Bytes image = rng.bytes(len);
    auto slb = latelaunch::Slb::parse(image);
    if (slb.ok()) {
        // Whatever parsed must satisfy the format's own invariants.
        EXPECT_GE(slb->length(), latelaunch::slbHeaderBytes);
        EXPECT_LE(slb->length(), image.size());
        EXPECT_GE(slb->entryPoint(), latelaunch::slbHeaderBytes);
        EXPECT_LE(slb->entryPoint(), slb->length());
    }
}

TEST_P(SlbFuzz, WrappedImagesAlwaysReparse)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
    const std::size_t code_len = rng.nextBelow(4096);
    auto made = latelaunch::Slb::wrap(rng.bytes(code_len));
    ASSERT_TRUE(made.ok());
    auto parsed = latelaunch::Slb::parse(made->image());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->image(), made->image());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlbFuzz, ::testing::Range(0, 25));

// ---- Sealed-blob bit-flip sweep ---------------------------------------------

class BlobBitFlip : public ::testing::TestWithParam<int>
{
};

TEST_P(BlobBitFlip, AnySingleBitFlipNeverYieldsWrongPlaintextSilently)
{
    const auto &srk = crypto::cachedKey("prop-srk", 512);
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
    const Bytes payload = rng.bytes(64);
    const tpm::SealedBlob blob =
        tpm::sealBlob(srk.pub, rng, payload, {{17, Bytes(20, 0x01)}});
    Bytes wire = blob.encode();

    // Flip one random bit anywhere in the wire image.
    const std::size_t byte_index = rng.nextBelow(wire.size());
    wire[byte_index] ^=
        static_cast<std::uint8_t>(1u << rng.nextBelow(8));

    auto decoded = tpm::SealedBlob::decode(wire);
    if (!decoded.ok())
        return; // framing caught it
    auto out = tpm::unsealBlob(srk, *decoded);
    if (out.ok()) {
        // Only acceptable if the flip landed in a non-authenticated
        // framing byte and the payload is untouched.
        EXPECT_EQ(*out, payload);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlobBitFlip, ::testing::Range(0, 40));

// ---- Memory-controller state machine ----------------------------------------

class AclProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(AclProperty, RandomOpSequencesPreserveInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
    machine::PhysicalMemory mem(16);
    machine::MemoryController ctrl(mem);
    constexpr int cpus = 4;

    for (int step = 0; step < 200; ++step) {
        const PageNum page = rng.nextBelow(16);
        const CpuId cpu = static_cast<CpuId>(rng.nextBelow(cpus));
        switch (rng.nextBelow(4)) {
          case 0:
            ctrl.aclAcquire({page}, cpu);
            break;
          case 1:
            ctrl.aclSuspend({page}, cpu);
            break;
          case 2:
            ctrl.aclRelease({page});
            break;
          case 3:
            ctrl.aclJoin({page}, cpu,
                         static_cast<CpuId>(rng.nextBelow(cpus)));
            break;
        }

        // Invariants after every step:
        for (PageNum p = 0; p < 16; ++p) {
            const machine::PageState state = ctrl.pageState(p);
            const std::uint64_t mask = ctrl.pageOwnerMask(p);
            if (state == machine::PageState::all) {
                EXPECT_EQ(mask, 0u);
                // ALL pages are readable by everyone and DMA.
                EXPECT_TRUE(ctrl.read(machine::Agent::forDevice(),
                                      pageBase(p), 1).ok());
            } else {
                EXPECT_NE(mask, 0u);
                // Non-ALL pages never admit DMA.
                EXPECT_FALSE(ctrl.read(machine::Agent::forDevice(),
                                       pageBase(p), 1).ok());
            }
            if (state == machine::PageState::none) {
                // NONE admits no CPU either.
                for (CpuId c = 0; c < cpus; ++c) {
                    EXPECT_FALSE(
                        ctrl.read(machine::Agent::forCpu(c), pageBase(p),
                                  1).ok());
                }
            }
            if (state == machine::PageState::owned) {
                // Exactly the owners can access.
                for (CpuId c = 0; c < cpus; ++c) {
                    EXPECT_EQ(ctrl.read(machine::Agent::forCpu(c),
                                        pageBase(p), 1).ok(),
                              (mask >> c) & 1);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AclProperty, ::testing::Range(0, 10));

// ---- Scheduler workload sweep ------------------------------------------------

class SchedulerProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerProperty, RandomWorkloadsCompleteAndCleanUp)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 13);
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed,
                                      GetParam());
    const std::size_t sepcrs = 2 + rng.nextBelow(6);
    rec::SecureExecutive exec(m, sepcrs);
    const Duration quantum =
        Duration::micros(200 + static_cast<double>(rng.nextBelow(1800)));
    rec::OsScheduler sched(exec, quantum);

    const int pal_count = 1 + static_cast<int>(rng.nextBelow(9));
    Duration max_work;
    for (int i = 0; i < pal_count; ++i) {
        rec::PalProgram prog(sea::Pal::fromLogic(
            "prop-" + std::to_string(GetParam()) + "-" + std::to_string(i),
            1024 + rng.nextBelow(8) * 512,
            [](sea::PalContext &) { return okStatus(); }));
        prog.totalCompute = Duration::micros(
            100 + static_cast<double>(rng.nextBelow(5000)));
        max_work = std::max(max_work, prog.totalCompute);
        ASSERT_TRUE(sched.add(prog).ok());
    }

    auto stats = sched.runAll();
    ASSERT_TRUE(stats.ok());

    // Every PAL completed successfully.
    ASSERT_EQ(stats->completions.size(),
              static_cast<std::size_t>(pal_count));
    for (const auto &c : stats->completions)
        EXPECT_TRUE(c.result.ok()) << c.name;

    // Makespan is at least the largest single PAL's work.
    EXPECT_GE(stats->makespan, max_work);

    // The ACL table is fully released: every page back to ALL.
    for (PageNum p = 0; p < m.memctrl().pages(); ++p)
        EXPECT_EQ(m.memctrl().pageState(p), machine::PageState::all);

    // Every sePCR is free again.
    EXPECT_EQ(exec.sePcrs().freeCount(), sepcrs);

    // The TPM lock is released.
    EXPECT_FALSE(m.tpm().lockHolder().has_value());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerProperty,
                         ::testing::Range(0, 12));

// ---- PCR bank over every register ---------------------------------------------

class PcrIndexProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PcrIndexProperty, ExtendReadResetSemanticsPerIndex)
{
    const auto index = static_cast<std::size_t>(GetParam());
    tpm::PcrBank bank;
    const Bytes boot = *bank.read(index);
    EXPECT_EQ(boot, Bytes(20, tpm::PcrBank::dynamic(index) ? 0xff : 0x00));

    ASSERT_TRUE(bank.extend(index, Bytes(20, 0x42)).ok());
    EXPECT_NE(*bank.read(index), boot);

    const Status reset = bank.resetDynamic(index);
    EXPECT_EQ(reset.ok(), tpm::PcrBank::dynamic(index));

    bank.reboot();
    EXPECT_EQ(*bank.read(index), boot);
}

INSTANTIATE_TEST_SUITE_P(AllPcrs, PcrIndexProperty,
                         ::testing::Range(0, 24));

} // namespace
} // namespace mintcb
