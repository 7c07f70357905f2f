/**
 * @file
 * Attested-migration tests: the full challenge/quote/re-seal/adopt
 * round trip, source invalidation (the old directory becomes a typed
 * rollback rejection), nonce single-use, and the SRK-substitution
 * relay dying in verification.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "store/engine.hh"
#include "store/migrate.hh"
#include "storetest.hh"

namespace mintcb::store
{
namespace
{

using storetest::TempDir;
using storetest::configFor;
using storetest::contents;

/** Source at epoch 2 with three keys; target empty with its own TPM
 *  (distinct seed => distinct SRK). */
struct MigrationFixture
{
    MigrationFixture()
    {
        StoreConfig srcCfg = configFor(srcTmp);
        auto s = SealedStore::open(srcCfg);
        EXPECT_TRUE(s.ok());
        source = s.take();
        EXPECT_TRUE(source->put("a", asciiBytes("alpha")).ok());
        EXPECT_TRUE(source->put("b", asciiBytes("beta")).ok());
        EXPECT_TRUE(source->commit().ok());
        EXPECT_TRUE(source->put("c", asciiBytes("gamma")).ok());
        EXPECT_TRUE(source->commit().ok());

        StoreConfig dstCfg = configFor(dstTmp);
        dstCfg.seed = 0x54475431; // "TGT1": its own SRK lineage
        auto t = SealedStore::open(dstCfg);
        EXPECT_TRUE(t.ok());
        target = t.take();
    }

    TempDir srcTmp;
    TempDir dstTmp;
    std::unique_ptr<SealedStore> source;
    std::unique_ptr<SealedStore> target;
};

TEST(Migration, EndToEndMovesStateAndInvalidatesTheSource)
{
    MigrationFixture fx;
    const auto before = contents(*fx.source);
    ASSERT_EQ(before.size(), 3u);

    MigrationAuthority authority(*fx.source);
    const Bytes nonce = authority.beginChallenge();
    EXPECT_EQ(nonce.size(), 20u);

    auto attestation = fx.target->attestForMigration(nonce);
    ASSERT_TRUE(attestation.ok()) << attestation.error().message;

    auto bundle = authority.complete(
        nonce, fx.target->srkPublicEncoded(), attestation->encode());
    ASSERT_TRUE(bundle.ok()) << bundle.error().message;

    // The source is already invalidated: counter advanced, engine dead.
    EXPECT_FALSE(fx.source->alive());
    EXPECT_EQ(fx.source->stats().migrationsOut, 1u);

    ASSERT_TRUE(
        MigrationAuthority::adopt(*fx.target, *bundle).ok());
    EXPECT_EQ(contents(*fx.target), before);
    EXPECT_GE(fx.target->epoch(), 1u); // adopted state is committed
    EXPECT_EQ(fx.target->stats().migrationsIn, 1u);

    // The migrated state survives a target restart.
    const StoreConfig dstCfg = fx.target->config();
    fx.target.reset();
    auto reopened = SealedStore::open(dstCfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ(contents(**reopened), before);

    // A's copy is no longer unsealable: the unmatched counter advance
    // makes every future open a typed rollback rejection.
    const StoreConfig srcCfg = fx.source->config();
    fx.source.reset();
    auto stale = SealedStore::open(srcCfg);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, Errc::integrityFailure);
    EXPECT_NE(stale.error().message.find("rollback detected"),
              std::string::npos)
        << stale.error().message;
}

TEST(Migration, NonceIsSingleUse)
{
    MigrationFixture fx;
    MigrationAuthority authority(*fx.source);
    const Bytes nonce = authority.beginChallenge();
    auto attestation = fx.target->attestForMigration(nonce);
    ASSERT_TRUE(attestation.ok());

    auto first = authority.complete(
        nonce, fx.target->srkPublicEncoded(), attestation->encode());
    ASSERT_TRUE(first.ok()) << first.error().message;

    auto replayed = authority.complete(
        nonce, fx.target->srkPublicEncoded(), attestation->encode());
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, Errc::permissionDenied);
}

TEST(Migration, UnknownNonceIsRefused)
{
    MigrationFixture fx;
    MigrationAuthority authority(*fx.source);
    const Bytes forged(20, 0xaa);
    auto attestation = fx.target->attestForMigration(forged);
    ASSERT_TRUE(attestation.ok());
    auto bundle = authority.complete(
        forged, fx.target->srkPublicEncoded(), attestation->encode());
    ASSERT_FALSE(bundle.ok());
    EXPECT_EQ(bundle.error().code, Errc::permissionDenied);
    EXPECT_TRUE(fx.source->alive()); // refusal must not invalidate
}

TEST(Migration, SrkSubstitutionRelayDiesInVerification)
{
    // A relay presents the target's honest quote but staples its own
    // SRK, hoping the state gets re-sealed to a key it controls. The
    // quote covers sha256(nonce || SRK), so the swap breaks freshness.
    MigrationFixture fx;

    TempDir relayTmp;
    StoreConfig relayCfg = configFor(relayTmp);
    relayCfg.seed = 0x45564931; // the relay's own TPM
    auto relay = SealedStore::open(relayCfg);
    ASSERT_TRUE(relay.ok());

    MigrationAuthority authority(*fx.source);
    const Bytes nonce = authority.beginChallenge();
    auto attestation = fx.target->attestForMigration(nonce);
    ASSERT_TRUE(attestation.ok());

    auto bundle = authority.complete(
        nonce, (*relay)->srkPublicEncoded(), attestation->encode());
    ASSERT_FALSE(bundle.ok());
    EXPECT_TRUE(fx.source->alive()); // state never left the source
    EXPECT_EQ(fx.source->stats().migrationsOut, 0u);
}

TEST(Migration, AdoptRequiresAnEmptyTarget)
{
    MigrationFixture fx;
    ASSERT_TRUE(fx.target->put("existing", asciiBytes("x")).ok());
    ASSERT_TRUE(fx.target->commit().ok());

    MigrationAuthority authority(*fx.source);
    const Bytes nonce = authority.beginChallenge();
    auto attestation = fx.target->attestForMigration(nonce);
    ASSERT_TRUE(attestation.ok());
    auto bundle = authority.complete(
        nonce, fx.target->srkPublicEncoded(), attestation->encode());
    ASSERT_TRUE(bundle.ok()) << bundle.error().message;

    const Status s = MigrationAuthority::adopt(*fx.target, *bundle);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::failedPrecondition);
}

TEST(Migration, MalformedBundleLeavesTheTargetUntouched)
{
    MigrationFixture fx;
    EXPECT_FALSE(
        MigrationAuthority::adopt(*fx.target, asciiBytes("junk")).ok());
    Bytes truncated = {0x4d, 0x4d, 0x42, 0x31}; // magic alone
    EXPECT_FALSE(
        MigrationAuthority::adopt(*fx.target, truncated).ok());
    EXPECT_EQ(fx.target->size(), 0u);
    EXPECT_EQ(fx.target->epoch(), 0u);
    EXPECT_TRUE(fx.target->alive());
}

TEST(Migration, ExportRefusesUncommittedMutations)
{
    MigrationFixture fx;
    ASSERT_TRUE(fx.source->put("pending", asciiBytes("x")).ok());
    auto payload = fx.source->exportForMigration(
        [](const Bytes &p, std::uint64_t) -> Result<Bytes> { return p; });
    ASSERT_FALSE(payload.ok());
    EXPECT_EQ(payload.error().code, Errc::failedPrecondition);
    EXPECT_TRUE(fx.source->alive());
}

TEST(Migration, OversizedBundleIsRefusedBeforeInvalidation)
{
    MigrationFixture fx;
    const std::uint64_t epoch = fx.source->epoch();
    MigrationAuthority authority(*fx.source);
    const Bytes nonce = authority.beginChallenge();
    auto attestation = fx.target->attestForMigration(nonce);
    ASSERT_TRUE(attestation.ok()) << attestation.error().message;

    auto bundle = authority.complete(nonce, fx.target->srkPublicEncoded(),
                                     attestation->encode(), 64);
    ASSERT_FALSE(bundle.ok());
    EXPECT_EQ(bundle.error().code, Errc::resourceExhausted);
    // Nothing advanced: the source is live at its epoch and commits on.
    EXPECT_TRUE(fx.source->alive());
    EXPECT_EQ(fx.source->epoch(), epoch);
    EXPECT_EQ(fx.source->stats().migrationsOut, 0u);
    ASSERT_TRUE(fx.source->put("later", asciiBytes("y")).ok());
    ASSERT_TRUE(fx.source->commit().ok());
    EXPECT_EQ(fx.source->epoch(), epoch + 1);
}

TEST(Migration, ChallengeFifoIsBounded)
{
    MigrationFixture fx;
    MigrationAuthority authority(*fx.source);
    for (int i = 0; i < 40; ++i)
        authority.beginChallenge();
    EXPECT_LE(authority.outstandingChallenges(), 16u);
}

} // namespace
} // namespace mintcb::store
