/**
 * @file
 * Disk-fault tests: real write failures, injected without any hook.
 *
 * RLIMIT_FSIZE caps how large this process may grow a regular file.
 * With SIGXFSZ ignored, a write that crosses the cap is cut short at
 * the cap and the next one fails with EFBIG ("File too large") -- a
 * short write followed by an error, exactly what a full disk does to
 * an append. The cap bounds the write position, not the file's growth,
 * so it also cuts an in-place chip-NV slot write short. Each test
 * restores the limit and the signal disposition right after the
 * faulted call, before anything else writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/hex.hh"
#include "store/engine.hh"
#include "storetest.hh"

namespace mintcb::store
{
namespace
{

using storetest::FileSizeCap;
using storetest::TempDir;
using storetest::configFor;
using storetest::mustOpen;

TEST(StoreDiskFault, ShortWalAppendKillsTheInstance)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("kept", asciiBytes("v1")).ok());
        ASSERT_TRUE(store->commit().ok());
        const std::string walPath = store->walPath();
        const auto walSize = std::filesystem::file_size(walPath);

        Status failed = okStatus();
        {
            FileSizeCap cap(walSize + 10);
            ASSERT_TRUE(cap.active());
            failed = store->put("torn", Bytes(200, 0x5a));
            cap.restore();
        }
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.error().code, Errc::unavailable);
        EXPECT_NE(failed.error().message.find("File too large"),
                  std::string::npos)
            << failed.error().message;
        EXPECT_EQ(std::filesystem::file_size(walPath), walSize + 10);

        // The torn bytes stay in the log, so nothing may land behind
        // them: a commit after them would be dropped on replay while
        // the hardware counter advanced for it.
        EXPECT_FALSE(store->alive());
        const Status next = store->put("after", asciiBytes("v2"));
        EXPECT_FALSE(next.ok());
        if (!next.ok()) {
            EXPECT_EQ(next.error().code, Errc::failedPrecondition);
        }
        EXPECT_FALSE(store->commit().ok());
    }

    auto reopened = SealedStore::open(cfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ((*reopened)->epoch(), 1u);
    EXPECT_TRUE((*reopened)->has("kept"));
    EXPECT_FALSE((*reopened)->has("torn"));
    EXPECT_FALSE((*reopened)->has("after"));
    EXPECT_GT((*reopened)->stats().tornBytesDiscarded, 0u);
    EXPECT_EQ((*reopened)->stats().recoveryRekeys, 1u);
}

TEST(StoreDiskFault, FailedCheckpointLeavesNoTmpFile)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0; // manual checkpoints only
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("kept", asciiBytes("v1")).ok());
        ASSERT_TRUE(store->commit().ok());

        Status failed = okStatus();
        {
            FileSizeCap cap(100);
            ASSERT_TRUE(cap.active());
            failed = store->checkpoint();
            cap.restore();
        }
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.error().code, Errc::unavailable);
        EXPECT_FALSE(
            std::filesystem::exists(store->snapshotPath() + ".tmp"));
    }

    auto reopened = SealedStore::open(cfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ((*reopened)->epoch(), 1u);
    EXPECT_TRUE((*reopened)->has("kept"));
}

TEST(StoreDiskFault, FailedWalRewriteKillsTheInstance)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0; // manual checkpoints only
    // An empty map seals to a snapshot smaller than a fresh log (whose
    // sealed 32-byte key is a larger payload), so a cap at the
    // snapshot's size lets the snapshot through and cuts the log
    // rewrite short.
    const auto emptyAgain = [](SealedStore &s) {
        return s.put("k", asciiBytes("v")).ok() && s.commit().ok() &&
               s.remove("k").ok() && s.commit().ok();
    };
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(emptyAgain(*store));
        ASSERT_TRUE(store->checkpoint().ok());
        const auto snapSize =
            std::filesystem::file_size(store->snapshotPath());
        ASSERT_LT(snapSize, std::filesystem::file_size(store->walPath()));
        ASSERT_TRUE(emptyAgain(*store));

        Status failed = okStatus();
        {
            FileSizeCap cap(snapSize);
            ASSERT_TRUE(cap.active());
            failed = store->checkpoint();
            cap.restore();
        }
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.error().code, Errc::unavailable);
        EXPECT_FALSE(
            std::filesystem::exists(store->walPath() + ".tmp"));
        // The log key already moved on: a record appended to the old
        // log now would not verify on replay.
        EXPECT_FALSE(store->alive());
        EXPECT_FALSE(store->put("after", asciiBytes("v")).ok());
        EXPECT_FALSE(store->commit().ok());
    }

    auto reopened = SealedStore::open(cfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ((*reopened)->epoch(), 4u);
    EXPECT_EQ((*reopened)->size(), 0u);
}

TEST(StoreDiskFault, ShortChipNvSlotWriteKillsTheInstance)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        const std::string nvPath = store->nvPath();
        const Bytes created = storetest::slurp(nvPath);
        ASSERT_EQ(created.size(), nvSlotCount * nvSlotBytes);
        // The fresh chip sits in slot 0, so the first commit writes
        // slot 1. A cap 10 bytes into slot 1 leaves the log (far below
        // it) alone and tears the slot after its first 10 bytes.
        ASSERT_TRUE(store->put("kept", asciiBytes("v1")).ok());
        ASSERT_LT(std::filesystem::file_size(store->walPath()) + 200,
                  nvSlotBytes);

        Status failed = okStatus();
        {
            FileSizeCap cap(nvSlotBytes + 10);
            ASSERT_TRUE(cap.active());
            failed = store->commit();
            cap.restore();
        }
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.error().code, Errc::unavailable);
        EXPECT_NE(failed.error().message.find("File too large"),
                  std::string::npos)
            << failed.error().message;
        // The commit record is durable and the counter advanced: a
        // retried commit would double-advance it.
        EXPECT_FALSE(store->alive());
        EXPECT_FALSE(store->commit().ok());
        const Bytes torn = storetest::slurp(nvPath);
        ASSERT_EQ(torn.size(), created.size());
        EXPECT_TRUE(std::equal(created.begin(),
                               created.begin() + nvSlotBytes, torn.begin()));
        EXPECT_NE(torn, created);
        EXPECT_FALSE(decodeNvSlot(torn, 1).ok());
    }

    // The torn slot reads as the one before it, one increment behind
    // the durable commit: a forward repair, not a rollback refusal.
    auto reopened = SealedStore::open(cfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ((*reopened)->epoch(), 1u);
    EXPECT_TRUE((*reopened)->has("kept"));
    EXPECT_EQ((*reopened)->stats().counterRepairs, 1u);
    EXPECT_EQ((*reopened)->stats().rollbackRejections, 0u);
    ASSERT_TRUE((*reopened)->put("after", asciiBytes("v2")).ok());
    ASSERT_TRUE((*reopened)->commit().ok());
}

} // namespace
} // namespace mintcb::store
