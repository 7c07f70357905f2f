/**
 * @file
 * Byte-for-byte pins of every counter-struct rendering: the Prometheus
 * exposition of the memctrl, TPM, gateway and store bridges (every
 * field holding a distinct hand-assigned value), and the platform
 * stats report after a PAL run. A renamed family, a reworded HELP
 * line, a dropped label or a reordered report field changes a digest.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/counters.hh"
#include "common/hex.hh"
#include "crypto/sha256.hh"
#include "machine/platformstats.hh"
#include "net/gateway.hh"
#include "obs/metrics.hh"
#include "sea/palgen.hh"
#include "store/engine.hh"

namespace mintcb
{
namespace
{

std::string
sha256Hex(const std::string &text)
{
    return toHex(
        crypto::toBytes(crypto::Sha256::digest(asciiBytes(text))));
}

TEST(CountersPin, PrometheusExpositionOfEveryBridgedStruct)
{
    MemCtrlStats memctrl;
    memctrl.cpuReads = 101;
    memctrl.cpuWrites = 102;
    memctrl.dmaReads = 103;
    memctrl.dmaWrites = 104;
    memctrl.cpuDenials = 105;
    memctrl.dmaDenials = 106;
    memctrl.aclTransitions = 107;

    TpmStats tpm;
    tpm.extends = 201;
    tpm.reads = 202;
    tpm.seals = 203;
    tpm.unseals = 204;
    tpm.quotes = 205;
    tpm.getRandoms = 206;
    tpm.hashSequences = 207;
    tpm.deniedCommands = 208;

    TpmStats shardTpm;
    shardTpm.extends = 301;
    shardTpm.reads = 302;
    shardTpm.seals = 303;
    shardTpm.unseals = 304;
    shardTpm.quotes = 305;
    shardTpm.getRandoms = 306;
    shardTpm.hashSequences = 307;
    shardTpm.deniedCommands = 308;

    net::GatewayStats gateway;
    gateway.connectionsAccepted = 401;
    gateway.connectionsClosed = 402;
    gateway.handshakesCompleted = 403;
    gateway.handshakesRefused = 404;
    gateway.protocolErrors = 405;
    gateway.idleDisconnects = 406;
    gateway.framesRx = 407;
    gateway.framesTx = 408;
    gateway.bytesRx = 409;
    gateway.bytesTx = 410;
    gateway.requestsAdmitted = 411;
    gateway.busyQueueFull = 412;
    gateway.busyRateLimited = 413;
    gateway.duplicateSequence = 414;
    gateway.unknownPal = 415;
    gateway.backendRejected = 416;
    gateway.drains = 417;
    gateway.reportsDelivered = 418;
    gateway.reportsDropped = 419;
    gateway.reportsOversized = 420;
    gateway.maxPendingDepth = 421;
    gateway.migrationsServed = 422;
    gateway.migrationsRefused = 423;
    gateway.ticketsIssued = 424;
    gateway.ticketsResumed = 425;
    gateway.ticketsRefused = 426;
    gateway.ticketsEvicted = 427;

    store::StoreStats store;
    store.walRecordsAppended = 501;
    store.walBytesAppended = 502;
    store.commits = 503;
    store.checkpoints = 504;
    store.fsyncs = 505;
    store.recoveries = 506;
    store.recordsReplayed = 507;
    store.commitsReplayed = 508;
    store.tornBytesDiscarded = 509;
    store.uncommittedDiscarded = 510;
    store.recoveryRekeys = 511;
    store.rollbackRejections = 512;
    store.counterRepairs = 513;
    store.migrationsOut = 514;
    store.migrationsIn = 515;

    obs::MetricsRegistry registry;
    obs::bridgeCounters(registry, memctrl);
    obs::bridgeCounters(registry, tpm);
    obs::bridgeCounters(registry, shardTpm, {{"shard", "3"}});
    obs::bridgeCounters(registry, gateway, {{"gateway", "pin"}});
    obs::bridgeCounters(registry, store, {{"store", "pin"}});

    const std::string text = registry.renderPrometheus();
    EXPECT_EQ(sha256Hex(text), "99b2deca52d7163d78bbb616e52bd37f"
                               "cdb121cc98caefc2f13e4a8b162d3389")
        << text;
}

TEST(CountersPin, PlatformStatsReportAfterPalGen)
{
    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::hpDc5750);
    sea::SeaDriver driver(m);
    ASSERT_TRUE(sea::runPalGen(driver).ok());

    const std::string report = machine::statsReport(m);
    EXPECT_EQ(sha256Hex(report), "daa299baed62c654533efb8b870e0b21"
                                 "8b2a4d2610788469611b553b6901784e")
        << report;
}

} // namespace
} // namespace mintcb
