/**
 * @file
 * Gateway MIGRATE verb, end to end over TCP: an attested client drives
 * the challenge/quote/bundle round trip on behalf of its local target
 * store, the migrated contents match the source byte for byte, the
 * source directory becomes permanently unopenable, and every refusal
 * path (unknown store name, unanswered challenge, unattested
 * connection state) is a clean error frame.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "net/client.hh"
#include "net/gateway.hh"
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

net::PalRegistry
testRegistry()
{
    net::PalRegistry registry;
    registry.addEcho("echo");
    return registry;
}

/** A gateway whose sealed store has committed state and a migration
 *  authority serving it under the name "vault". */
struct MigrateGatewayFixture
{
    MigrateGatewayFixture()
        : machine(machine::Machine::forPlatform(
              machine::PlatformId::recTestbed)),
          service(machine), registry(testRegistry())
    {
        auto s = SealedStore::open(configFor(srcTmp));
        EXPECT_TRUE(s.ok());
        source = s.take();
        EXPECT_TRUE(
            source->put("deploy-key", asciiBytes("ssh-ed25519 AAAA"))
                .ok());
        EXPECT_TRUE(
            source->put("db-password", asciiBytes("hunter2")).ok());
        EXPECT_TRUE(source->commit().ok());

        authority =
            std::make_unique<MigrationAuthority>(*source);
        net::GatewayConfig config;
        config.migration = authority.get();
        config.migrationStore = "vault";
        gateway = std::make_unique<net::Gateway>(machine, service,
                                                 registry, config);
        gateway->trustClientPal(net::AttestedIdentity::clientPal());
        EXPECT_TRUE(gateway->start().ok());
    }

    ~MigrateGatewayFixture()
    {
        if (gateway)
            gateway->stop();
    }

    std::unique_ptr<SealedStore>
    openTarget(const TempDir &tmp)
    {
        StoreConfig cfg = configFor(tmp);
        cfg.seed = 0x54475432; // the target's own TPM lineage
        auto t = SealedStore::open(cfg);
        EXPECT_TRUE(t.ok());
        return t.ok() ? t.take() : nullptr;
    }

    TempDir srcTmp;
    machine::Machine machine;
    sea::ExecutionService service;
    net::PalRegistry registry;
    std::unique_ptr<SealedStore> source;
    std::unique_ptr<MigrationAuthority> authority;
    std::unique_ptr<net::Gateway> gateway;
};

TEST(GatewayMigrate, EndToEndOverTcp)
{
    MigrateGatewayFixture fx;
    const auto before = contents(*fx.source);

    TempDir dstTmp;
    auto target = fx.openTarget(dstTmp);
    ASSERT_NE(target, nullptr);

    net::GatewayClient client;
    ASSERT_TRUE(client.connect(fx.gateway->port()).ok());
    const Status s = client.migrateInto(*target, "vault");
    ASSERT_TRUE(s.ok()) << s.error().message;
    client.bye();

    EXPECT_EQ(contents(*target), before);
    EXPECT_GE(target->epoch(), 1u);
    EXPECT_FALSE(fx.source->alive());

    fx.gateway->stop();
    EXPECT_EQ(fx.gateway->stats().migrationsServed, 1u);
    EXPECT_EQ(fx.gateway->stats().migrationsRefused, 0u);

    // The gateway-side directory is now a typed rollback rejection.
    const StoreConfig srcCfg = fx.source->config();
    fx.source.reset();
    auto stale = SealedStore::open(srcCfg);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, Errc::integrityFailure);
}

TEST(GatewayMigrate, UnknownStoreNameIsRefused)
{
    MigrateGatewayFixture fx;
    TempDir dstTmp;
    auto target = fx.openTarget(dstTmp);
    ASSERT_NE(target, nullptr);

    net::GatewayClient client;
    ASSERT_TRUE(client.connect(fx.gateway->port()).ok());
    const Status s = client.migrateInto(*target, "no-such-store");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::notFound);
    client.bye();

    fx.gateway->stop();
    EXPECT_EQ(fx.gateway->stats().migrationsServed, 0u);
    EXPECT_GE(fx.gateway->stats().migrationsRefused, 1u);
    EXPECT_TRUE(fx.source->alive());
}

TEST(GatewayMigrate, BundleOverTheFrameLimitIsATypedRefusal)
{
    MigrateGatewayFixture fx;
    // Two values that each fit a WAL record but together make a bundle
    // larger than one MGW1 frame may carry.
    const std::size_t half = net::maxFramePayload / 2 + 4096;
    ASSERT_TRUE(fx.source->put("blob-a", Bytes(half, 0xa5)).ok());
    ASSERT_TRUE(fx.source->put("blob-b", Bytes(half, 0x5a)).ok());
    ASSERT_TRUE(fx.source->commit().ok());

    TempDir dstTmp;
    auto target = fx.openTarget(dstTmp);
    ASSERT_NE(target, nullptr);

    net::GatewayClient client;
    ASSERT_TRUE(client.connect(fx.gateway->port()).ok());
    const Status s = client.migrateInto(*target, "vault");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::resourceExhausted)
        << s.error().message;
    client.bye();

    fx.gateway->stop();
    EXPECT_EQ(fx.gateway->stats().migrationsServed, 0u);
    EXPECT_EQ(fx.gateway->stats().migrationsRefused, 1u);
    EXPECT_EQ(fx.gateway->stats().protocolErrors, 0u);

    // The refusal came before the invalidation: the source is still the
    // one live replica, it keeps serving and committing, and its
    // directory reopens (no counter advance left it behind the chip).
    ASSERT_TRUE(fx.source->alive());
    auto a = fx.source->get("blob-a");
    ASSERT_TRUE(a.ok()) << a.error().message;
    EXPECT_EQ(*a, Bytes(half, 0xa5));
    ASSERT_TRUE(fx.source->put("after", asciiBytes("refusal")).ok());
    ASSERT_TRUE(fx.source->commit().ok());
    const StoreConfig srcCfg = fx.source->config();
    const auto before = contents(*fx.source);
    fx.source.reset();
    auto reopened = SealedStore::open(srcCfg);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ(contents(**reopened), before);
}

TEST(GatewayMigrate, GatewayWithoutAuthorityRefusesEverything)
{
    // No authority wired at all: every migrateBegin is a notFound.
    machine::Machine machine = machine::Machine::forPlatform(
        machine::PlatformId::recTestbed);
    sea::ExecutionService service(machine);
    net::PalRegistry registry = testRegistry();
    net::Gateway gateway(machine, service, registry, {});
    gateway.trustClientPal(net::AttestedIdentity::clientPal());
    ASSERT_TRUE(gateway.start().ok());

    TempDir dstTmp;
    StoreConfig cfg = configFor(dstTmp);
    auto target = SealedStore::open(cfg);
    ASSERT_TRUE(target.ok());

    net::GatewayClient client;
    ASSERT_TRUE(client.connect(gateway.port()).ok());
    const Status s = client.migrateInto(**target, "default");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::notFound);
    client.bye();
    gateway.stop();
}

TEST(GatewayMigrate, MigrateWithoutChallengeIsAProtocolError)
{
    MigrateGatewayFixture fx;
    TempDir dstTmp;
    auto target = fx.openTarget(dstTmp);
    ASSERT_NE(target, nullptr);

    net::GatewayClient client;
    ASSERT_TRUE(client.connect(fx.gateway->port()).ok());

    // Skip migrateBegin: hand-roll a migrate frame against a nonce the
    // gateway never issued for this connection.
    const Bytes forgedNonce(20, 0x42);
    auto attestation = target->attestForMigration(forgedNonce);
    ASSERT_TRUE(attestation.ok());
    net::MigratePayload payload;
    payload.storeName = "vault";
    payload.nonce = forgedNonce;
    payload.targetSrk = target->srkPublicEncoded();
    payload.attestation = attestation->encode();
    ASSERT_TRUE(client
                    .sendFrame(net::FrameType::migrate,
                               net::encode(payload))
                    .ok());
    auto reply = client.recvFrame();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, net::FrameType::error);
    client.bye();

    fx.gateway->stop();
    EXPECT_GE(fx.gateway->stats().migrationsRefused, 1u);
    EXPECT_TRUE(fx.source->alive());
}

} // namespace
} // namespace mintcb::store
