/**
 * @file
 * SealedStore engine tests: restart survival, uncommitted-tail
 * discard, typed rollback rejection, snapshot checkpoints with log
 * compaction, counter forward-repair, corrupt-artifact diagnoses, and
 * the sea::SealedStateStore hook contract.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/hex.hh"
#include "common/rng.hh"
#include "store/engine.hh"
#include "obs/metrics.hh"
#include "storetest.hh"

namespace mintcb::store
{
namespace
{

using storetest::TempDir;
using storetest::configFor;
using storetest::mustOpen;
using storetest::contents;
using storetest::slurp;
using storetest::spew;

TEST(SealedStoreEngine, OpenCreatesAnEmptyStore)
{
    TempDir tmp;
    auto store = mustOpen(configFor(tmp));
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->epoch(), 0u);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->pendingMutations(), 0u);
    EXPECT_TRUE(store->alive());
}

TEST(SealedStoreEngine, CommittedStateSurvivesRestart)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("host-key", asciiBytes("ed25519")).ok());
        ASSERT_TRUE(store->put("ca-cert", asciiBytes("x509")).ok());
        ASSERT_TRUE(store->commit().ok());
        ASSERT_TRUE(store->remove("ca-cert").ok());
        ASSERT_TRUE(store->commit().ok());
        EXPECT_EQ(store->epoch(), 2u);
    }
    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->epoch(), 2u);
    EXPECT_EQ(reopened->size(), 1u);
    auto value = reopened->get("host-key");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, asciiBytes("ed25519"));
    EXPECT_FALSE(reopened->has("ca-cert"));
    EXPECT_GE(reopened->stats().recoveries, 1u);
}

TEST(SealedStoreEngine, UncommittedTailIsDiscardedOnReplay)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("durable", asciiBytes("yes")).ok());
        ASSERT_TRUE(store->commit().ok());
        // Journaled but never committed: visible now, gone on replay.
        ASSERT_TRUE(store->put("volatile", asciiBytes("no")).ok());
        EXPECT_TRUE(store->has("volatile"));
    }
    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->has("durable"));
    EXPECT_FALSE(reopened->has("volatile"));
    EXPECT_EQ(reopened->epoch(), 1u);
    EXPECT_GE(reopened->stats().uncommittedDiscarded, 1u);
}

TEST(SealedStoreEngine, RolledBackDirectoryIsATypedRejection)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    Bytes staleWal;
    Bytes staleSnap;
    std::string walPath;
    std::string snapPath;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        walPath = store->walPath();
        snapPath = store->snapshotPath();
        ASSERT_TRUE(store->put("secret", asciiBytes("v1")).ok());
        ASSERT_TRUE(store->commit().ok());
        // Adversary snapshots the whole directory at epoch 1 ...
        staleWal = slurp(walPath);
        ASSERT_TRUE(store->put("secret", asciiBytes("v2")).ok());
        ASSERT_TRUE(store->commit().ok());
    }
    // ... then replays it after two more epochs were served.
    spew(walPath, staleWal);
    auto replayed = SealedStore::open(cfg);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, Errc::integrityFailure);
    EXPECT_NE(replayed.error().message.find("rollback detected"),
              std::string::npos)
        << replayed.error().message;
}

TEST(SealedStoreEngine, CheckpointCompactsTheLogAndSurvivesRestart)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0; // manual checkpoints only
    std::size_t walBefore = 0;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 16; ++i) {
            ASSERT_TRUE(store
                            ->put("key-" + std::to_string(i % 4),
                                  Rng(i).bytes(256))
                            .ok());
            ASSERT_TRUE(store->commit().ok());
        }
        walBefore = slurp(store->walPath()).size();
        ASSERT_TRUE(store->checkpoint().ok());
        const std::size_t walAfter = slurp(store->walPath()).size();
        EXPECT_LT(walAfter, walBefore);
        EXPECT_EQ(store->stats().checkpoints, 1u);
        EXPECT_EQ(store->epoch(), 16u);
    }
    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->epoch(), 16u);
    EXPECT_EQ(reopened->size(), 4u);
    for (int i = 12; i < 16; ++i) {
        auto v = reopened->get("key-" + std::to_string(i % 4));
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, Rng(i).bytes(256));
    }
}

TEST(SealedStoreEngine, CheckpointRefusesPendingMutations)
{
    TempDir tmp;
    auto store = mustOpen(configFor(tmp));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->put("k", asciiBytes("v")).ok());
    const Status s = store->checkpoint();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::failedPrecondition);
}

TEST(SealedStoreEngine, AutoCheckpointFiresOnTheConfiguredCadence)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 4;
    auto store = mustOpen(cfg);
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(
            store->put("k" + std::to_string(i), asciiBytes("v")).ok());
        ASSERT_TRUE(store->commit().ok());
    }
    EXPECT_EQ(store->stats().checkpoints, 2u);
}

TEST(SealedStoreEngine, CorruptSnapshotIsDiagnosedNotServed)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0;
    std::string snapPath;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("k", asciiBytes("v")).ok());
        ASSERT_TRUE(store->commit().ok());
        ASSERT_TRUE(store->checkpoint().ok());
        snapPath = store->snapshotPath();
    }
    Bytes snap = slurp(snapPath);
    ASSERT_FALSE(snap.empty());
    snap[snap.size() / 2] ^= 0x01;
    spew(snapPath, snap);
    auto reopened = SealedStore::open(cfg);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, Errc::integrityFailure);
}

TEST(SnapshotContainer, CrcFlipIsRefusedBeforeTheFieldsAreRead)
{
    const Bytes wire =
        EpochContainer{7, asciiBytes("sealed")}.encode(snapshotFormat);
    auto back = EpochContainer::decode(snapshotFormat, wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->epoch, 7u);
    EXPECT_EQ(back->body, asciiBytes("sealed"));

    Bytes flipped = wire;
    flipped.back() ^= 0x01; // last byte of the CRC field
    auto refused = EpochContainer::decode(snapshotFormat, flipped);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::integrityFailure);
    EXPECT_EQ(refused.error().message,
              "corrupt snapshot: container CRC mismatch");
}

TEST(SealedStoreEngine, StateDigestIsInsertionOrderIndependent)
{
    TempDir tmpA;
    TempDir tmpB;
    auto a = mustOpen(configFor(tmpA));
    auto b = mustOpen(configFor(tmpB));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(a->put("x", asciiBytes("1")).ok());
    ASSERT_TRUE(a->put("y", asciiBytes("2")).ok());
    ASSERT_TRUE(b->put("y", asciiBytes("2")).ok());
    ASSERT_TRUE(b->put("x", asciiBytes("1")).ok());
    ASSERT_TRUE(a->commit().ok());
    ASSERT_TRUE(b->commit().ok());
    EXPECT_EQ(a->stateDigest(), b->stateDigest());
    ASSERT_TRUE(b->put("x", asciiBytes("other")).ok());
    ASSERT_TRUE(b->commit().ok());
    EXPECT_NE(a->stateDigest(), b->stateDigest());
}

TEST(SealedStoreEngine, SealedStateStoreHookCommitsPerCall)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        sea::SealedStateStore &hook = *store;
        ASSERT_TRUE(
            hook.storeSealedState("pal/image", asciiBytes("sealed"))
                .ok());
        // No explicit commit(): the hook is the crash-safe interface a
        // PAL front end stores through.
        EXPECT_TRUE(hook.hasSealedState("pal/image"));
        EXPECT_EQ(store->pendingMutations(), 0u);
    }
    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    auto blob = reopened->loadSealedState("pal/image");
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, asciiBytes("sealed"));
    EXPECT_FALSE(reopened->hasSealedState("pal/other"));
    EXPECT_EQ(reopened->loadSealedState("pal/other").error().code,
              Errc::notFound);
}

TEST(SealedStoreEngine, StatsBridgeExportsStoreCounters)
{
    TempDir tmp;
    auto store = mustOpen(configFor(tmp));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->put("k", asciiBytes("v")).ok());
    ASSERT_TRUE(store->commit().ok());

    obs::MetricsRegistry registry;
    obs::bridgeCounters(registry, store->stats(), {{"store", "test"}});
    const std::string rendered = registry.renderPrometheus();
    EXPECT_NE(rendered.find("store_commits_total"), std::string::npos);
    EXPECT_NE(rendered.find("store_wal_records_appended_total"),
              std::string::npos);
    EXPECT_NE(store->stats().str().find("commits"), std::string::npos);
}

TEST(SealedStoreEngine, DeletedCommittedPrefixIsRejected)
{
    // An adversarial disk deletes the first committed batch of a
    // generation (records after the keyBlob): sequence numbers stay
    // monotone, the surviving commits still cover their batches, and
    // the final epoch still equals the hardware counter -- only the
    // chain-connects-to-the-snapshot check catches the splice.
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0;
    std::string walPath;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        walPath = store->walPath();
        for (int batch = 0; batch < 3; ++batch) {
            const std::string key = "k" + std::to_string(batch);
            ASSERT_TRUE(store->put(key, asciiBytes("v")).ok());
            ASSERT_TRUE(store->commit().ok());
        }
    }
    const Bytes image = slurp(walPath);
    const WalScan scan = scanWal(image);
    // keyBlob, then {put, commit} x 3.
    ASSERT_EQ(scan.records.size(), 7u);
    ASSERT_FALSE(scan.torn);
    Bytes spliced(image.begin(),
                  image.begin() + static_cast<std::ptrdiff_t>(
                                      scan.recordEnds[0]));
    spliced.insert(spliced.end(),
                   image.begin() + static_cast<std::ptrdiff_t>(
                                       scan.recordEnds[2]),
                   image.end());
    spew(walPath, spliced);
    auto reopened = SealedStore::open(cfg);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, Errc::integrityFailure);
    EXPECT_NE(reopened.error().message.find("prefix deleted"),
              std::string::npos)
        << reopened.error().message;
}

TEST(SealedStoreEngine, OversizedMutationIsRefusedBeforeJournaling)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        // Over the bound: refused up front, nothing journaled, no
        // counter movement -- the store stays fully usable.
        const Status s = store->put("big", Bytes(maxWalPayload, 0xaa));
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.error().code, Errc::invalidArgument);
        EXPECT_EQ(store->pendingMutations(), 0u);
        EXPECT_EQ(store->stats().walRecordsAppended, 0u);

        // The largest value that encodes within the bound commits and
        // survives replay (it must never read back as a torn tail).
        const std::string key = "just-fits";
        const Bytes fits(
            maxWalPayload - encodedMutationBytes(key.size(), 0), 0xbb);
        ASSERT_TRUE(store->put(key, fits).ok());
        ASSERT_TRUE(store->commit().ok());
    }
    auto reopened = mustOpen(cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->epoch(), 1u);
    auto value = reopened->get("just-fits");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->size(),
              maxWalPayload - encodedMutationBytes(9, 0));
}

TEST(SealedStoreEngine, TornTailRecoveryRotatesTheGeneration)
{
    TempDir tmp;
    const StoreConfig cfg = configFor(tmp);
    std::string walPath;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        walPath = store->walPath();
        ASSERT_TRUE(store->put("durable", asciiBytes("yes")).ok());
        ASSERT_TRUE(store->commit().ok());
        ASSERT_TRUE(store->put("volatile", asciiBytes("no")).ok());
    }
    // Tear the trailing (uncommitted) record mid-ciphertext, as a
    // power cut would.
    Bytes image = slurp(walPath);
    image.resize(image.size() - 3);
    spew(walPath, image);

    {
        auto reopened = mustOpen(cfg);
        ASSERT_NE(reopened, nullptr);
        EXPECT_TRUE(reopened->has("durable"));
        EXPECT_FALSE(reopened->has("volatile"));
        EXPECT_GE(reopened->stats().tornBytesDiscarded, 1u);
        // The truncated record's keystream ran under a sequence number
        // the next write would reuse: recovery must have rotated to a
        // fresh generation (compacted log, chained key) before
        // accepting writes.
        EXPECT_EQ(reopened->stats().recoveryRekeys, 1u);
        const WalScan fresh = scanWal(slurp(walPath));
        ASSERT_EQ(fresh.records.size(), 1u);
        EXPECT_EQ(fresh.records[0].type, RecordType::keyBlob);
        ASSERT_TRUE(
            reopened->put("post-torn", asciiBytes("ok")).ok());
        ASSERT_TRUE(reopened->commit().ok());
    }
    auto again = mustOpen(cfg);
    ASSERT_NE(again, nullptr);
    EXPECT_TRUE(again->has("durable"));
    EXPECT_TRUE(again->has("post-torn"));
}

TEST(SealedStoreEngine, MidCommitNvFailureIsFatalNotRetryable)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    const std::string nvDir = tmp.root() + "/nvdir";
    cfg.nvPath = nvDir + "/chip.tpmnv";
    std::filesystem::create_directories(nvDir);
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("k", asciiBytes("v")).ok());
        // The commit record lands and the counter advances, then the
        // chip-NV persist fails: a retried commit() would append a
        // duplicate epoch and double-advance the counter, so the
        // instance must die instead of staying retryable.
        std::filesystem::remove_all(nvDir);
        const Status s = store->commit();
        ASSERT_FALSE(s.ok());
        EXPECT_FALSE(store->alive());
        EXPECT_FALSE(store->commit().ok());
        EXPECT_FALSE(store->put("again", asciiBytes("x")).ok());
    }
    // Reopen repairs: the WAL carries the durable commit, the chip is
    // one increment behind its sidecar image -- the forward-repair
    // window -- and the committed value is there.
    std::filesystem::create_directories(nvDir);
    auto recovered = mustOpen(cfg);
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->epoch(), 1u);
    EXPECT_TRUE(recovered->has("k"));
}

TEST(SealedStoreEngine, MissingWalForNonEmptyStoreIsRefused)
{
    TempDir tmp;
    StoreConfig cfg = configFor(tmp);
    cfg.snapshotEvery = 0;
    std::string walPath;
    {
        auto store = mustOpen(cfg);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put("k", asciiBytes("v")).ok());
        ASSERT_TRUE(store->commit().ok());
        ASSERT_TRUE(store->checkpoint().ok());
        walPath = store->walPath();
    }
    std::filesystem::remove(walPath);
    auto reopened = SealedStore::open(cfg);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, Errc::integrityFailure);
    EXPECT_NE(reopened.error().message.find("WAL missing"),
              std::string::npos)
        << reopened.error().message;
}

} // namespace
} // namespace mintcb::store
