/**
 * @file
 * MGW1 session resumption over loopback (DESIGN.md section 11.2):
 *
 *  - a returning client resumes with no quote and a working session;
 *  - each refusal -- a recorded resume replayed after bye, a ticket
 *    presented to another gateway, an expired ticket, an evicted
 *    ticket, a short or forged proof -- is a typed error frame,
 *    counted in ticketsRefused and never in handshakesRefused, after
 *    which connect() attests in full on a fresh connection;
 *  - the client refuses a report for a sequence it never sent or has
 *    already answered.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/hex.hh"
#include "net/client.hh"
#include "net/gateway.hh"

namespace mintcb::net
{
namespace
{

using machine::Machine;
using machine::PlatformId;

PalRegistry
echoRegistry()
{
    PalRegistry registry;
    registry.addEcho("echo");
    return registry;
}

/** A gateway over its own service machine on an ephemeral port. */
struct GatewayFixture
{
    explicit GatewayFixture(GatewayConfig config = {})
        : machine(Machine::forPlatform(PlatformId::recTestbed)),
          service(machine), registry(echoRegistry()),
          gateway(machine, service, registry, std::move(config))
    {
        gateway.trustClientPal(AttestedIdentity::clientPal());
        EXPECT_TRUE(gateway.start().ok());
    }

    std::uint16_t port() const { return gateway.port(); }

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
    config.backoff = [](std::uint32_t) {};
    return config;
}

/** One echo over @p client's session. */
void
expectEcho(GatewayClient &client, std::uint64_t sequence)
{
    WireRequest request;
    request.sequence = sequence;
    request.palName = "echo";
    request.input = asciiBytes("resume:" + std::to_string(sequence));
    auto reply = client.call(request);
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    auto summary = summarizeReport(reply->report);
    ASSERT_TRUE(summary.ok());
    EXPECT_EQ(summary->output, request.input);
}

/** The resume frame a holder of @p ticket sends at its current epoch. */
ResumePayload
resumeFor(const SessionTicket &ticket)
{
    ResumePayload resume;
    resume.id = ticket.id;
    resume.epoch = ticket.epoch;
    resume.nonce = asciiBytes("recorded-nonce");
    resume.proof =
        resumeProof(ticket.secret, ticket.id, ticket.epoch, resume.nonce);
    return resume;
}

/** Present @p resume on a fresh connection to @p port; the reply. */
Frame
present(std::uint16_t port, const ResumePayload &resume)
{
    auto stream = TcpStream::connectLoopback(port, 5000);
    EXPECT_TRUE(stream.ok());
    if (!stream)
        return {};
    FrameChannel channel(stream.take());
    EXPECT_TRUE(channel.send({FrameType::resume, encode(resume)}).ok());
    auto reply = channel.recv();
    EXPECT_TRUE(reply.ok());
    if (reply.ok() && reply->type == FrameType::resumed)
        (void)channel.send({FrameType::bye, Bytes{}});
    return reply.ok() ? *reply : Frame{};
}

void
expectRefusal(const Frame &frame, Errc code, const std::string &text)
{
    ASSERT_EQ(frame.type, FrameType::error) << frameTypeName(frame.type);
    auto error = decodeError(frame.payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, static_cast<std::uint16_t>(code))
        << error->message;
    EXPECT_NE(error->message.find(text), std::string::npos)
        << error->message;
}

TEST(Resume, ReturningClientResumesWithoutAQuote)
{
    GatewayFixture fx;
    GatewayClient client(quickClient(71));
    ASSERT_TRUE(client.connect(fx.port()).ok());
    ASSERT_TRUE(client.ticket().has_value());
    const Bytes id = client.ticket()->id;
    EXPECT_EQ(id.size(), ticketIdBytes);
    EXPECT_EQ(client.ticket()->secret.size(), ticketSecretBytes);
    const std::uint64_t first = client.sessionId();
    const std::string subject = client.gatewaySubject();
    expectEcho(client, 1);
    client.bye();

    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(client.connect(fx.port()).ok());
        EXPECT_NE(client.sessionId(), first);
        EXPECT_EQ(client.gatewaySubject(), subject);
        expectEcho(client, 2 + i);
        client.bye();
    }
    EXPECT_EQ(client.ticket()->id, id);
    EXPECT_EQ(client.ticket()->epoch, 3u);

    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.handshakesCompleted, 1u);
    EXPECT_EQ(stats.ticketsIssued, 1u);
    EXPECT_EQ(stats.ticketsResumed, 3u);
    EXPECT_EQ(stats.ticketsRefused, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

TEST(Resume, NoLifetimeIssuesNoTicket)
{
    GatewayConfig config;
    config.ticketLifetimeMillis = 0;
    GatewayFixture fx(config);
    GatewayClient client(quickClient(72));
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(client.connect(fx.port()).ok());
        EXPECT_FALSE(client.ticket().has_value());
        client.bye();
    }
    fx.gateway.stop();
    EXPECT_EQ(fx.gateway.stats().handshakesCompleted, 2u);
    EXPECT_EQ(fx.gateway.stats().ticketsIssued, 0u);
}

TEST(Resume, RecordedResumeReplayedAfterByeIsStale)
{
    GatewayFixture fx;
    GatewayClient client(quickClient(73));
    ASSERT_TRUE(client.connect(fx.port()).ok());
    client.bye();

    // The holder resumes once; an eavesdropper keeps the frame.
    const ResumePayload recorded = resumeFor(*client.ticket());
    EXPECT_EQ(present(fx.port(), recorded).type, FrameType::resumed);
    // After that session's bye, the same bytes are stale for good.
    expectRefusal(present(fx.port(), recorded), Errc::permissionDenied,
                  "stale ticket epoch 0 (current 1)");

    // The client still holds epoch 0: refused, it attests in full on a
    // fresh connection and earns a new ticket.
    const Bytes oldId = client.ticket()->id;
    ASSERT_TRUE(client.connect(fx.port()).ok());
    expectEcho(client, 1);
    client.bye();
    ASSERT_TRUE(client.ticket().has_value());
    EXPECT_NE(client.ticket()->id, oldId);
    EXPECT_EQ(client.ticket()->epoch, 0u);

    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.ticketsResumed, 1u);
    EXPECT_EQ(stats.ticketsRefused, 2u);
    EXPECT_EQ(stats.handshakesCompleted, 2u);
    EXPECT_EQ(stats.handshakesRefused, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

TEST(Resume, TicketFromAnotherGatewayIsUnknown)
{
    GatewayFixture a;
    GatewayFixture b;
    GatewayClient client(quickClient(74));
    ASSERT_TRUE(client.connect(a.port()).ok());
    client.bye();

    expectRefusal(present(b.port(), resumeFor(*client.ticket())),
                  Errc::notFound, "unknown session ticket");

    // As if gateway B now listened where A did: the client presents
    // A's ticket, is refused, and attests to B in full.
    client.ticket()->port = b.port();
    ASSERT_TRUE(client.connect(b.port()).ok());
    expectEcho(client, 1);
    client.bye();

    a.gateway.stop();
    b.gateway.stop();
    EXPECT_EQ(a.gateway.stats().ticketsRefused, 0u);
    EXPECT_EQ(b.gateway.stats().ticketsRefused, 2u);
    EXPECT_EQ(b.gateway.stats().ticketsResumed, 0u);
    EXPECT_EQ(b.gateway.stats().handshakesCompleted, 1u);
    EXPECT_EQ(b.gateway.stats().handshakesRefused, 0u);
}

TEST(Resume, ExpiredTicketIsRefused)
{
    std::atomic<std::uint64_t> now{1000};
    GatewayConfig config;
    config.clock = [&now] { return now.load(); };
    config.idleTimeoutMillis = 0;
    config.ticketLifetimeMillis = 500;
    GatewayFixture fx(config);
    GatewayClient first(quickClient(75));
    GatewayClient second(quickClient(76));
    ASSERT_TRUE(first.connect(fx.port()).ok());
    first.bye();
    ASSERT_TRUE(second.connect(fx.port()).ok());
    second.bye();

    now += 499; // still live
    ASSERT_TRUE(second.connect(fx.port()).ok());
    second.bye();
    now += 1; // both tickets reach their expiry

    expectRefusal(present(fx.port(), resumeFor(*first.ticket())),
                  Errc::failedPrecondition, "session ticket expired");
    ASSERT_TRUE(second.connect(fx.port()).ok());
    expectEcho(second, 1);
    second.bye();

    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.ticketsResumed, 1u);
    EXPECT_EQ(stats.ticketsRefused, 2u);
    EXPECT_EQ(stats.handshakesCompleted, 3u);
    EXPECT_EQ(stats.handshakesRefused, 0u);
}

TEST(Resume, TableCapEvictsTheOldestTicket)
{
    GatewayConfig config;
    config.ticketTableCap = 2;
    GatewayFixture fx(config);
    std::vector<std::unique_ptr<GatewayClient>> clients;
    for (std::uint64_t c = 0; c < 3; ++c) {
        clients.push_back(std::make_unique<GatewayClient>(quickClient(77 + c)));
        ASSERT_TRUE(clients.back()->connect(fx.port()).ok());
        clients.back()->bye();
    }
    expectRefusal(present(fx.port(), resumeFor(*clients[0]->ticket())),
                  Errc::notFound, "unknown session ticket");

    // The evicted client attests in full; its new ticket evicts the
    // second client's, and the third still resumes.
    ASSERT_TRUE(clients[0]->connect(fx.port()).ok());
    clients[0]->bye();
    ASSERT_TRUE(clients[2]->connect(fx.port()).ok());
    clients[2]->bye();

    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.ticketsIssued, 4u);
    EXPECT_EQ(stats.ticketsEvicted, 2u);
    EXPECT_EQ(stats.ticketsRefused, 2u);
    EXPECT_EQ(stats.ticketsResumed, 1u);
    EXPECT_EQ(stats.handshakesCompleted, 4u);
}

TEST(Resume, ShortOrForgedProofIsRefused)
{
    GatewayFixture fx;
    GatewayClient client(quickClient(80));
    ASSERT_TRUE(client.connect(fx.port()).ok());
    client.bye();

    ResumePayload shortProof = resumeFor(*client.ticket());
    shortProof.proof.resize(5);
    expectRefusal(present(fx.port(), shortProof), Errc::integrityFailure,
                  "proof does not verify");
    ResumePayload forged = resumeFor(*client.ticket());
    forged.proof[0] ^= 0x01;
    expectRefusal(present(fx.port(), forged), Errc::integrityFailure,
                  "proof does not verify");

    // A client whose secret is wrong is refused too, then attests.
    client.ticket()->secret[0] ^= 0x01;
    ASSERT_TRUE(client.connect(fx.port()).ok());
    expectEcho(client, 1);
    client.bye();

    fx.gateway.stop();
    const GatewayStats &stats = fx.gateway.stats();
    EXPECT_EQ(stats.ticketsRefused, 3u);
    EXPECT_EQ(stats.ticketsResumed, 0u);
    EXPECT_EQ(stats.handshakesCompleted, 2u);
    EXPECT_EQ(stats.handshakesRefused, 0u);
}

/**
 * A hand-driven peer in place of a gateway: it answers the handshake
 * with a real gateway attestation over the client's nonce, then
 * answers the k-th flush with report frames for script[k]'s sequences.
 */
void
scriptedPeer(TcpListener &listener,
             std::vector<std::vector<std::uint64_t>> script)
{
    auto stream = listener.accept();
    ASSERT_TRUE(stream.ok());
    FrameChannel channel(stream.take());
    auto hello = channel.recv();
    ASSERT_TRUE(hello.ok());
    auto helloPayload = decodeHello(hello->payload);
    ASSERT_TRUE(helloPayload.ok());
    AttestedIdentity identity("peer", AttestedIdentity::gatewayPal(), 82);
    ASSERT_TRUE(identity.ok());
    auto attestation = identity.attest(helloPayload->nonce);
    ASSERT_TRUE(attestation.ok());
    ASSERT_TRUE(channel
                    .send({FrameType::challenge,
                           encode(ChallengePayload{attestation->encode(),
                                                   asciiBytes("nonce")})})
                    .ok());
    auto auth = channel.recv();
    ASSERT_TRUE(auth.ok());
    ASSERT_TRUE(
        channel.send({FrameType::authOk, encode(AuthOkPayload{1, "peer"})})
            .ok());
    for (const auto &answer : script) {
        for (;;) {
            auto frame = channel.recv();
            if (!frame)
                return;
            if (frame->type == FrameType::flush)
                break;
        }
        for (std::uint64_t sequence : answer) {
            ASSERT_TRUE(channel
                            .send({FrameType::report,
                                   encode(ReportPayload{
                                       sequence, asciiBytes("report")})})
                            .ok());
        }
    }
}

TEST(GatewayClient, RefusesStrayAndDuplicateReports)
{
    auto listener = TcpListener::bindLoopback(0);
    ASSERT_TRUE(listener.ok());
    std::thread peer(scriptedPeer, std::ref(*listener),
                     std::vector<std::vector<std::uint64_t>>{
                         {99}, // a sequence the client never sent
                         {2},  // a good answer
                         {2},  // a late duplicate of it
                         {4, 4}}); // a duplicate inside one batch

    GatewayClient client(quickClient(81));
    ASSERT_TRUE(client.connect(listener->port()).ok());
    WireRequest request;
    request.palName = "echo";

    request.sequence = 1;
    auto stray = client.call(request);
    ASSERT_FALSE(stray.ok());
    EXPECT_EQ(stray.error().code, Errc::integrityFailure);
    EXPECT_NE(stray.error().message.find("sequence 99"), std::string::npos)
        << stray.error().message;

    request.sequence = 2;
    auto good = client.call(request);
    ASSERT_TRUE(good.ok()) << good.error().str();
    EXPECT_EQ(good->sequence, 2u);

    request.sequence = 3;
    auto late = client.call(request);
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.error().code, Errc::integrityFailure);

    WireRequest other = request;
    request.sequence = 4;
    other.sequence = 5;
    auto duplicate = client.runBatch({request, other});
    ASSERT_FALSE(duplicate.ok());
    EXPECT_EQ(duplicate.error().code, Errc::integrityFailure);
    EXPECT_NE(duplicate.error().message.find("already answered"),
              std::string::npos)
        << duplicate.error().message;

    client.close();
    peer.join();
}

} // namespace
} // namespace mintcb::net
