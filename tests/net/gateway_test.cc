/**
 * @file
 * Gateway end-to-end tests -- the acceptance criteria of the net
 * layer:
 *
 *  - reports served over TCP are byte-identical to direct in-process
 *    submission of the same batch (determinism carries end to end);
 *  - 64 concurrent attested clients complete with zero protocol
 *    errors;
 *  - a connection whose quote fails the verifier is refused before
 *    any submit reaches the execution service;
 *  - rate-limited clients receive explicit busy backpressure on an
 *    open connection, not a disconnect;
 *  - idle connections are reaped; malformed traffic gets a clean
 *    error frame and a close, never a hang;
 *  - a report too large for one frame is a typed failure for its
 *    sequence, not a frame the client must refuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/hex.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "obs/metrics.hh"

namespace mintcb::net
{
namespace
{

using machine::Machine;
using machine::PlatformId;

PalRegistry
testRegistry()
{
    PalRegistry registry;
    registry.addEcho("echo");
    return registry;
}

WireRequest
echoRequest(std::uint64_t sequence, const std::string &tag)
{
    WireRequest r;
    r.sequence = sequence;
    r.palName = "echo";
    r.input = asciiBytes("payload:" + tag);
    r.slicedComputeTicks = Duration::micros(200).ticks();
    return r;
}

/** A gateway over its own service machine, started on an ephemeral
 *  port, plus everything a test needs to poke it. */
struct GatewayFixture
{
    explicit GatewayFixture(GatewayConfig config = {})
        : machine(Machine::forPlatform(PlatformId::recTestbed)),
          service(machine), registry(testRegistry()),
          gateway(machine, service, registry, std::move(config))
    {
        gateway.trustClientPal(AttestedIdentity::clientPal());
        EXPECT_TRUE(gateway.start().ok());
    }

    Machine machine;
    sea::ExecutionService service;
    PalRegistry registry;
    Gateway gateway;
};

ClientConfig
quickClient(std::uint64_t seed)
{
    ClientConfig config;
    config.identitySeed = seed;
    config.backoff = [](std::uint32_t) {}; // tests pace themselves
    return config;
}

TEST(PalRegistry, BuildsEachPalOnce)
{
    PalRegistry registry;
    registry.addEcho("once", 2048);
    WireRequest wire;
    wire.palName = "once";
    auto first = registry.build(wire);
    auto second = registry.build(wire);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // Both requests hold the registered identity, not rebuilds of it.
    EXPECT_EQ(&first->pal.slbImage(), &second->pal.slbImage());
    const auto noop = [](sea::PalContext &) { return okStatus(); };
    EXPECT_EQ(first->pal.measurement(),
              sea::Pal::fromLogic("once", 2048, noop).measurement());

    // Re-registering with a new code size replaces the identity for
    // later builds; requests built earlier keep theirs.
    registry.addEcho("once", 4096);
    auto third = registry.build(wire);
    ASSERT_TRUE(third.ok());
    EXPECT_NE(third->pal.measurement(), first->pal.measurement());
    EXPECT_EQ(third->pal.measurement(),
              sea::Pal::fromLogic("once", 4096, noop).measurement());
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Gateway, ReportsAreByteIdenticalToInProcessSubmission)
{
    constexpr std::size_t n = 8;

    // Network side: whole-batch drain cycles (drainBatch = n with idle
    // drains off), requests submitted in scrambled arrival order.
    GatewayConfig config;
    config.drainBatch = n;
    config.drainOnIdle = false;
    GatewayFixture fx(config);

    GatewayClient client(quickClient(21));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
    std::vector<WireRequest> batch;
    for (std::size_t i = 0; i < n; ++i)
        batch.push_back(
            echoRequest(i + 1, "byte-identity-" + std::to_string(i)));
    // Scramble the submission order; sequences still say 1..n.
    std::reverse(batch.begin(), batch.end());
    auto viaNetwork = client.runBatch(batch);
    ASSERT_TRUE(viaNetwork.ok()) << viaNetwork.error().str();
    ASSERT_EQ(viaNetwork->size(), n);
    client.bye();

    // Reference side: an identically-built machine + service runs the
    // same batch directly, in ascending-sequence order (the order the
    // gateway promises the service sees).
    Machine refMachine = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService refService(refMachine);
    PalRegistry refRegistry = testRegistry();
    for (std::size_t i = 0; i < n; ++i) {
        auto request = refRegistry.build(
            echoRequest(i + 1, "byte-identity-" + std::to_string(i)));
        ASSERT_TRUE(request.ok());
        ASSERT_TRUE(refService.submit(request.take()).ok());
    }
    auto direct = refService.drain();
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->size(), n);
    // Both services are fresh, so submission order == requestId order;
    // align on requestId rather than assuming drain's return order.
    std::sort(direct->begin(), direct->end(),
              [](const sea::ExecutionReport &a,
                 const sea::ExecutionReport &b) {
                  return a.requestId < b.requestId;
              });

    // runBatch returns reports sorted by sequence = submission order
    // of the reference loop. Byte-for-byte equality, timings included.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*viaNetwork)[i].sequence, i + 1);
        EXPECT_EQ((*viaNetwork)[i].report, (*direct)[i].encode())
            << "report " << i << " differs from in-process run";
    }
}

TEST(Gateway, SixtyFourConcurrentClientsZeroProtocolErrors)
{
    constexpr std::size_t clients = 64;
    constexpr std::size_t perClient = 2;

    GatewayConfig config;
    config.drainBatch = 16;
    GatewayFixture fx(config);

    std::atomic<std::uint64_t> okReports{0};
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> fleet;
    fleet.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        fleet.emplace_back([&, c] {
            GatewayClient client(quickClient(100 + c));
            if (!client.connect(fx.gateway.port()).ok()) {
                failures += perClient;
                return;
            }
            std::vector<WireRequest> batch;
            for (std::size_t k = 0; k < perClient; ++k)
                batch.push_back(echoRequest(
                    c * 1000000 + k + 1,
                    std::to_string(c) + "/" + std::to_string(k)));
            auto reports = client.runBatch(batch);
            if (!reports.ok() || reports->size() != perClient) {
                failures += perClient;
                return;
            }
            for (std::size_t i = 0; i < reports->size(); ++i) {
                auto summary = summarizeReport((*reports)[i].report);
                if (summary.ok() && summary->ok &&
                    summary->output == batch[i].input)
                    ++okReports;
                else
                    ++failures;
            }
            client.bye();
        });
    }
    for (std::thread &t : fleet)
        t.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(okReports.load(), clients * perClient);
    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_EQ(stats.handshakesCompleted, clients);
    EXPECT_EQ(stats.handshakesRefused, 0u);
    EXPECT_EQ(stats.reportsDelivered, clients * perClient);
    EXPECT_EQ(fx.service.metrics().submitted, clients * perClient);
}

TEST(Gateway, UnattestedQuoteRefusedBeforeAnySubmit)
{
    GatewayFixture fx;

    // A platform running a non-whitelisted identity PAL fails the
    // verifier's whitelist check during the handshake.
    ClientConfig rogueConfig = quickClient(31);
    rogueConfig.name = "rogue";
    GatewayClient rogue(rogueConfig);
    auto verdict = rogue.connect(fx.gateway.port());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.error().message.find("gateway:"),
              std::string::npos);

    // A client that skips attestation entirely and fires a submit
    // frame straight away is refused with an error frame.
    auto stream = TcpStream::connectLoopback(fx.gateway.port(), 5000);
    ASSERT_TRUE(stream.ok());
    FrameChannel raw(stream.take());
    ASSERT_TRUE(
        raw.send({FrameType::submit, encode(echoRequest(1, "x"))})
            .ok());
    auto reply = raw.recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::error);

    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().handshakesRefused, 1u);
    EXPECT_GE(fx.gateway.stats().protocolErrors, 1u);
    EXPECT_EQ(fx.gateway.stats().requestsAdmitted, 0u);
    // The acceptance criterion: nothing ever reached the service.
    EXPECT_EQ(fx.service.metrics().submitted, 0u);
}

TEST(Gateway, RateLimitedClientGetsBusyNotDisconnect)
{
    // Manual host clock: the gateway sees time move only when the test
    // advances it, making busy counts exact.
    auto fakeMs = std::make_shared<std::atomic<std::uint64_t>>(1000);
    GatewayConfig config;
    config.rateBurst = 2;
    config.ratePerSecond = 10.0; // one token per 100 fake ms
    config.clock = [fakeMs] { return fakeMs->load(); };
    GatewayFixture fx(config);

    ClientConfig clientConfig = quickClient(41);
    clientConfig.backoff = [fakeMs](std::uint32_t retry_after) {
        // The gateway's own hint drives the fake clock forward.
        *fakeMs += retry_after > 0 ? retry_after : 1;
    };
    GatewayClient client(clientConfig);
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());

    std::vector<WireRequest> batch;
    for (std::size_t i = 0; i < 5; ++i)
        batch.push_back(echoRequest(i + 1, "rate-" + std::to_string(i)));
    auto reports = client.runBatch(batch);
    ASSERT_TRUE(reports.ok()) << reports.error().str();
    EXPECT_EQ(reports->size(), 5u);

    // Burst of 2 admitted instantly; the other 3 were refused at least
    // once each -- on a connection that stayed open throughout.
    EXPECT_GE(client.busyResponses(), 3u);
    client.bye();
    fx.gateway.stop();
    EXPECT_GE(fx.gateway.stats().busyRateLimited, 3u);
    EXPECT_EQ(fx.gateway.stats().requestsAdmitted, 5u);
    EXPECT_EQ(fx.gateway.stats().protocolErrors, 0u);
    EXPECT_EQ(fx.gateway.stats().connectionsClosed, 1u); // only bye
}

TEST(Gateway, QueueFullGetsBusyNotDisconnect)
{
    GatewayConfig config;
    config.maxInflight = 2;
    config.drainBatch = 100; // hold admitted work pending
    config.drainOnIdle = false;
    GatewayFixture fx(config);

    GatewayClient client(quickClient(51));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
    // Fill the queue, then overflow it by hand (no flush: nothing
    // drains, so the third submit must bounce).
    ASSERT_TRUE(client.submit(echoRequest(1, "q")).ok());
    ASSERT_TRUE(client.submit(echoRequest(2, "q")).ok());
    ASSERT_TRUE(client.submit(echoRequest(3, "q")).ok());
    auto reply = client.recvFrame();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::busy);
    auto busy = decodeBusy(reply->payload);
    ASSERT_TRUE(busy.ok());
    EXPECT_EQ(busy->sequence, 3u);
    EXPECT_EQ(busy->reason, BusyReason::queueFull);

    // The connection survived: flush drains the two admitted requests
    // and their reports arrive on the same socket.
    ASSERT_TRUE(client.flush().ok());
    for (int i = 0; i < 2; ++i) {
        auto frame = client.recvFrame();
        ASSERT_TRUE(frame.ok());
        EXPECT_EQ(frame->type, FrameType::report);
    }
    client.bye();
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().busyQueueFull, 1u);
}

TEST(Gateway, UnknownPalAndDuplicateSequenceAreCleanErrors)
{
    GatewayConfig config;
    config.drainBatch = 100;
    config.drainOnIdle = false;
    GatewayFixture fx(config);

    {
        GatewayClient client(quickClient(61));
        ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
        WireRequest bad = echoRequest(1, "x");
        bad.palName = "no-such-pal";
        ASSERT_TRUE(client.submit(bad).ok());
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->type, FrameType::error);
    }
    {
        GatewayClient client(quickClient(62));
        ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
        ASSERT_TRUE(client.submit(echoRequest(7, "a")).ok());
        ASSERT_TRUE(client.submit(echoRequest(7, "b")).ok());
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->type, FrameType::error);
        auto payload = decodeError(reply->payload);
        ASSERT_TRUE(payload.ok());
        EXPECT_NE(payload->message.find("sequence"), std::string::npos);
    }
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().unknownPal, 1u);
    EXPECT_EQ(fx.gateway.stats().duplicateSequence, 1u);
}

TEST(Gateway, OversizedReportIsATypedFailureNotABrokenSession)
{
    GatewayFixture fx;
    GatewayClient client(quickClient(65));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());

    // The submit fits the frame limit; its echoed report does not.
    WireRequest big = echoRequest(1, "big");
    big.input = Bytes(maxFramePayload - 200, 0x5a);
    ASSERT_LE(encode(big).size(), maxFramePayload);
    auto reply = client.call(big);
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    EXPECT_EQ(reply->sequence, 1u);
    auto summary = summarizeReport(reply->report);
    ASSERT_TRUE(summary.ok()) << summary.error().str();
    EXPECT_FALSE(summary->ok);
    EXPECT_EQ(summary->errorCode,
              static_cast<std::uint16_t>(Errc::resourceExhausted));
    EXPECT_TRUE(summary->output.empty());

    // The connection survives: the next request on it succeeds.
    auto next = client.call(echoRequest(2, "after"));
    ASSERT_TRUE(next.ok()) << next.error().str();
    auto after = summarizeReport(next->report);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->ok);
    EXPECT_EQ(after->output, asciiBytes("payload:after"));
    client.bye();
    fx.gateway.stop();

    EXPECT_EQ(fx.gateway.stats().reportsOversized, 1u);
    EXPECT_EQ(fx.gateway.stats().reportsDelivered, 2u);
    EXPECT_EQ(fx.gateway.stats().protocolErrors, 0u);
    obs::MetricsRegistry registry;
    obs::bridgeCounters(registry, fx.gateway.stats(), {});
    EXPECT_EQ(registry.value("net_reports_oversized_total", {}), 1.0);
}

TEST(Gateway, SecbThatDoesNotFitFailsOnlyItsOwnRequest)
{
    // Two clients share one drain cycle. One asks for 2^32 - 1 data
    // pages, far past simulated RAM: its SECB cannot be placed, which
    // must fail that request alone with a typed report -- not the whole
    // cycle, and not the other client's echo.
    GatewayConfig config;
    config.drainBatch = 2;
    config.drainOnIdle = false;
    GatewayFixture fx(config);

    GatewayClient greedy(quickClient(71));
    GatewayClient modest(quickClient(72));
    ASSERT_TRUE(greedy.connect(fx.gateway.port()).ok());
    ASSERT_TRUE(modest.connect(fx.gateway.port()).ok());
    WireRequest huge = echoRequest(1, "huge");
    huge.dataPages = 0xFFFFFFFFu;
    ASSERT_TRUE(greedy.submit(huge).ok());
    ASSERT_TRUE(modest.submit(echoRequest(2, "modest")).ok());

    auto refused_frame = greedy.recvFrame();
    ASSERT_TRUE(refused_frame.ok()) << refused_frame.error().str();
    ASSERT_EQ(refused_frame->type, FrameType::report);
    auto refused = decodeReport(refused_frame->payload);
    ASSERT_TRUE(refused.ok());
    EXPECT_EQ(refused->sequence, 1u);
    auto refused_summary = summarizeReport(refused->report);
    ASSERT_TRUE(refused_summary.ok());
    EXPECT_FALSE(refused_summary->ok);
    EXPECT_EQ(refused_summary->errorCode,
              static_cast<std::uint16_t>(Errc::resourceExhausted));
    EXPECT_EQ(refused_summary->palName, "echo");

    auto echo_frame = modest.recvFrame();
    ASSERT_TRUE(echo_frame.ok()) << echo_frame.error().str();
    ASSERT_EQ(echo_frame->type, FrameType::report);
    auto echoed = decodeReport(echo_frame->payload);
    ASSERT_TRUE(echoed.ok());
    EXPECT_EQ(echoed->sequence, 2u);
    auto echo_summary = summarizeReport(echoed->report);
    ASSERT_TRUE(echo_summary.ok());
    EXPECT_TRUE(echo_summary->ok) << echo_summary->errorMessage;
    EXPECT_EQ(echo_summary->output, asciiBytes("payload:modest"));

    // The gateway keeps serving: a later cycle completes normally.
    auto later = modest.runBatch(
        {echoRequest(3, "later-a"), echoRequest(4, "later-b")});
    ASSERT_TRUE(later.ok()) << later.error().str();
    ASSERT_EQ(later->size(), 2u);
    for (const ReportPayload &r : *later) {
        auto summary = summarizeReport(r.report);
        ASSERT_TRUE(summary.ok());
        EXPECT_TRUE(summary->ok) << summary->errorMessage;
    }
    greedy.bye();
    modest.bye();
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().protocolErrors, 0u);
}

TEST(Gateway, MalformedFrameGetsErrorThenClose)
{
    GatewayFixture fx;
    auto stream = TcpStream::connectLoopback(fx.gateway.port(), 5000);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream->sendAll(asciiBytes("this is not a frame!")).ok());
    FrameChannel raw(stream.take());
    auto reply = raw.recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::error);
    // After the error frame the gateway hangs up: next read is EOF,
    // not a hang.
    auto eof = raw.recv();
    EXPECT_FALSE(eof.ok());
    fx.gateway.stop();
    EXPECT_GE(fx.gateway.stats().protocolErrors, 1u);
}

TEST(Gateway, IdleConnectionsAreReaped)
{
    auto fakeMs = std::make_shared<std::atomic<std::uint64_t>>(1000);
    GatewayConfig config;
    config.idleTimeoutMillis = 500;
    config.clock = [fakeMs] { return fakeMs->load(); };
    GatewayFixture fx(config);

    auto stream = TcpStream::connectLoopback(fx.gateway.port(), 5000);
    ASSERT_TRUE(stream.ok());
    // Let the reactor register the connection, then jump host time
    // past the idle budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    *fakeMs += 1000;
    FrameChannel raw(stream.take());
    auto reply = raw.recv();
    EXPECT_FALSE(reply.ok()); // EOF: reaped, nothing was sent
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().idleDisconnects, 1u);
}

TEST(Gateway, GracefulStopDrainsPendingWork)
{
    GatewayConfig config;
    config.drainBatch = 100; // nothing drains until stop
    config.drainOnIdle = false;
    GatewayFixture fx(config);

    GatewayClient client(quickClient(71));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
    ASSERT_TRUE(client.submit(echoRequest(1, "drain-me")).ok());
    // Give the reactor time to admit it, then stop the gateway: the
    // pending request must still execute and its report be delivered.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fx.gateway.requestStop();
    auto frame = client.recvFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::report);
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().reportsDelivered, 1u);
    EXPECT_EQ(fx.gateway.stats().reportsDropped, 0u);
}

TEST(Gateway, StatsBridgeExposesNetMetrics)
{
    GatewayFixture fx;
    GatewayClient client(quickClient(81));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
    ASSERT_TRUE(client.call(echoRequest(1, "metrics")).ok());
    client.bye();
    fx.gateway.stop();

    obs::MetricsRegistry registry;
    obs::bridgeCounters(registry, fx.gateway.stats(),
                       {{"gateway", "test"}});
    const obs::Labels labels{{"gateway", "test"}};
    EXPECT_EQ(registry.value("net_handshakes_completed_total", labels),
              1.0);
    EXPECT_EQ(registry.value("net_requests_admitted_total", labels),
              1.0);
    EXPECT_EQ(registry.value("net_reports_delivered_total", labels),
              1.0);
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("net_drains_total"), std::string::npos);
}

TEST(Gateway, TracerRecordsDrainSpansOnGatewayTrack)
{
    obs::SpanTracer tracer;
    GatewayConfig config;
    config.tracer = &tracer;
    GatewayFixture fx(config);

    GatewayClient client(quickClient(91));
    ASSERT_TRUE(client.connect(fx.gateway.port()).ok());
    ASSERT_TRUE(client.call(echoRequest(1, "traced")).ok());
    client.bye();
    fx.gateway.stop();

    bool sawSession = false;
    bool sawDrain = false;
    for (const obs::Span &span : tracer.spans()) {
        if (span.track != obs::track::gateway)
            continue;
        if (span.name == "gw:session")
            sawSession = true;
        if (span.name == "gw:drain")
            sawDrain = true;
    }
    EXPECT_TRUE(sawSession);
    EXPECT_TRUE(sawDrain);
}

} // namespace
} // namespace mintcb::net
