/**
 * @file
 * Chip-NV slot tests: the two-slot sidecar the freshness counter lives
 * in. A commit rewrites the older slot in place; a load takes the
 * newest slot whose CRC checks. A torn or corrupt newest slot reads as
 * the slot before it -- one increment behind, which recovery repairs
 * forward -- and a file with no valid slot, or a bare TNV1 image from
 * before the slot layout, is a typed refusal, never a fresh chip.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/hex.hh"
#include "store/engine.hh"
#include "storetest.hh"
#include "tpm/tpm.hh"

namespace mintcb::store
{
namespace
{

using storetest::TempDir;
using storetest::configFor;
using storetest::mustOpen;
using storetest::slurp;
using storetest::spew;

/** The valid slots of @p file as (generation, counter), invalid ones
 *  as nullopt. */
std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>>
slotsOf(const Bytes &file)
{
    std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>>
        out;
    for (std::size_t i = 0; i < nvSlotCount; ++i) {
        auto slot = decodeNvSlot(file, i);
        if (!slot) {
            out.emplace_back();
            continue;
        }
        auto counters = tpm::Tpm::nvStateCounters(slot->body);
        EXPECT_TRUE(counters.ok() && counters->size() == 1);
        out.emplace_back(std::make_pair(slot->epoch, (*counters)[0]));
    }
    return out;
}

/** A store at epoch 3 (three put + commit), closed. */
StoreConfig
storeAtEpochThree(const TempDir &tmp)
{
    const StoreConfig cfg = configFor(tmp);
    auto store = mustOpen(cfg);
    EXPECT_NE(store, nullptr);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(store->put("k" + std::to_string(i),
                               asciiBytes("v" + std::to_string(i)))
                        .ok());
        EXPECT_TRUE(store->commit().ok());
    }
    return cfg;
}

TEST(StoreNvSlots, CommitsAlternateSlotsInAFileThatNeverChangesSize)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    auto store = mustOpen(cfg);
    ASSERT_NE(store, nullptr);
    const std::string nv = store->nvPath();
    using Slot = std::optional<std::pair<std::uint64_t, std::uint64_t>>;

    // The fresh chip's first persist created the file: generation 1
    // (counter 0) in slot 0, slot 1 still zeros.
    EXPECT_EQ(slotsOf(slurp(nv)),
              (std::vector<Slot>{std::make_pair(1u, 0u), std::nullopt}));
    ASSERT_TRUE(store->put("a", asciiBytes("1")).ok());
    ASSERT_TRUE(store->commit().ok());
    EXPECT_EQ(slotsOf(slurp(nv)),
              (std::vector<Slot>{std::make_pair(1u, 0u),
                                 std::make_pair(2u, 1u)}));
    ASSERT_TRUE(store->put("b", asciiBytes("2")).ok());
    ASSERT_TRUE(store->commit().ok());
    EXPECT_EQ(slotsOf(slurp(nv)),
              (std::vector<Slot>{std::make_pair(3u, 2u),
                                 std::make_pair(2u, 1u)}));
    EXPECT_EQ(std::filesystem::file_size(nv), nvSlotCount * nvSlotBytes);
    EXPECT_FALSE(std::filesystem::exists(nv + ".tmp"));
    store.reset();

    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->epoch(), 2u);
    EXPECT_EQ(reopened->stats().counterRepairs, 0u);
    // The reopened store carries on from the newest slot.
    ASSERT_TRUE(reopened->put("c", asciiBytes("3")).ok());
    ASSERT_TRUE(reopened->commit().ok());
    EXPECT_EQ(slotsOf(slurp(nv)),
              (std::vector<Slot>{std::make_pair(3u, 2u),
                                 std::make_pair(4u, 3u)}));
}

TEST(StoreNvSlots, CorruptNewestSlotRepairsTheCounterForwardOnce)
{
    TempDir tmp;
    const StoreConfig cfg = storeAtEpochThree(tmp);
    const std::string nv = tmp.storeDir() + ".tpmnv";
    Bytes file = slurp(nv);
    // Generation 1 (the fresh chip) went to slot 0 and each commit to
    // the other slot: epoch 3 is generation 4 in slot 1, and slot 0
    // holds generation 3 at counter 2.
    const auto before = slotsOf(file);
    ASSERT_TRUE(before[0] && before[1]);
    ASSERT_EQ(*before[0], std::make_pair(std::uint64_t{3}, std::uint64_t{2}));
    ASSERT_EQ(*before[1], std::make_pair(std::uint64_t{4}, std::uint64_t{3}));
    file[nvSlotBytes + 20] ^= 0x01; // inside slot 1's TNV1 image
    spew(nv, file);
    EXPECT_FALSE(slotsOf(file)[1]);

    {
        auto reopened = mustOpen(cfg);
        ASSERT_NE(reopened, nullptr);
        EXPECT_EQ(reopened->epoch(), 3u);
        EXPECT_EQ(reopened->stats().counterRepairs, 1u);
        EXPECT_EQ(reopened->stats().rollbackRejections, 0u);
        for (int i = 0; i < 3; ++i) {
            auto value = reopened->get("k" + std::to_string(i));
            ASSERT_TRUE(value.ok());
            EXPECT_EQ(*value, asciiBytes("v" + std::to_string(i)));
        }
        // The repair rewrote the corrupt slot, not the good one.
        const auto repaired = slotsOf(slurp(nv));
        ASSERT_TRUE(repaired[0] && repaired[1]);
        EXPECT_EQ(*repaired[0], *before[0]);
        EXPECT_EQ(*repaired[1], *before[1]);
    }
    auto again = mustOpen(cfg);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->epoch(), 3u);
    EXPECT_EQ(again->stats().counterRepairs, 0u);
}

TEST(StoreNvSlots, BothSlotsCorruptIsAnIntegrityFailureNotAFreshChip)
{
    TempDir tmp;
    const StoreConfig cfg = storeAtEpochThree(tmp);
    const std::string nv = tmp.storeDir() + ".tpmnv";
    Bytes file = slurp(nv);
    file[20] ^= 0x01;
    file[nvSlotBytes + 20] ^= 0x01;
    spew(nv, file);

    auto refused = SealedStore::open(cfg);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::integrityFailure);
    EXPECT_NE(refused.error().message.find("no slot's CRC checks"),
              std::string::npos)
        << refused.error().message;
    EXPECT_EQ(slurp(nv), file); // nothing rewrote the chip
}

TEST(StoreNvSlots, BareTnv1SidecarIsRefused)
{
    TempDir tmp;
    const StoreConfig cfg = storeAtEpochThree(tmp);
    const std::string nv = tmp.storeDir() + ".tpmnv";
    // The pre-slot sidecar: the chip's TNV1 image alone (one counter,
    // at the store's epoch 3, no NV spaces).
    const Bytes bare = fromHex("544e5631000100000001"
                               "0000000000000003"
                               "00000000")
                           .value();
    ASSERT_TRUE(tpm::Tpm::nvStateCounters(bare).ok());
    spew(nv, bare);

    auto refused = SealedStore::open(cfg);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::invalidArgument);
    EXPECT_NE(refused.error().message.find("bare TNV1 image"),
              std::string::npos)
        << refused.error().message;
    EXPECT_EQ(slurp(nv), bare);

    // Any other size is corruption.
    spew(nv, Bytes(nvSlotBytes, 0));
    auto short_file = SealedStore::open(cfg);
    ASSERT_FALSE(short_file.ok());
    EXPECT_EQ(short_file.error().code, Errc::integrityFailure);
}

TEST(StoreNvSlots, OpenExistingOnlyRefusesAMissingWalAndCreatesNothing)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.createIfMissing = false;
    auto absent = SealedStore::open(cfg);
    ASSERT_FALSE(absent.ok());
    EXPECT_EQ(absent.error().code, Errc::notFound);
    EXPECT_EQ(absent.error().message,
              "no such file: " + tmp.storeDir() + "/wal.mwl");
    EXPECT_FALSE(std::filesystem::exists(tmp.storeDir()));
    EXPECT_FALSE(std::filesystem::exists(tmp.storeDir() + ".tpmnv"));

    // An existing store opens as usual.
    cfg.createIfMissing = true;
    ASSERT_NE(mustOpen(cfg), nullptr);
    cfg.createIfMissing = false;
    ASSERT_NE(mustOpen(cfg), nullptr);
}

} // namespace
} // namespace mintcb::store
