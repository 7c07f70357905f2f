/**
 * @file
 * Exact, host-independent operation counts on the gateway's request
 * path. A count is the same on every host and every run, so it is
 * gated with EXPECT_EQ: a change that adds or removes an RSA
 * operation per request fails here, whatever the host's speed.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "crypto/rsa.hh"
#include "net/client.hh"
#include "net/gateway.hh"

namespace mintcb::net
{
namespace
{

using machine::Machine;
using machine::PlatformId;

/**
 * One session-churn op over loopback: a cold connect (mutual
 * attestation), one quoted echo, bye. Per op the gateway quotes its
 * identity and the client quotes its own (one AIK signature each), the
 * service quotes the echo's sePCR (one more), and each side checks the
 * other's quote and AIK certificate (two verifications each). Both
 * identities hold their Privacy-CA certificate from their first
 * attest, so no op after the first signs a certificate.
 */
TEST(ExactCounts, SessionChurnRsaOperationsPerOp)
{
    constexpr std::uint64_t ops = 4;

    Machine machine = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService service(machine);
    PalRegistry registry;
    registry.addEcho("echo");
    GatewayConfig cold;
    cold.ticketLifetimeMillis = 0; // every connect attests in full
    Gateway gateway(machine, service, registry, cold);
    gateway.trustClientPal(AttestedIdentity::clientPal());
    ASSERT_TRUE(gateway.start().ok());

    ClientConfig config;
    config.backoff = [](std::uint32_t) {};
    GatewayClient client(config);
    std::uint64_t sequence = 0;
    const auto churnOp = [&] {
        ASSERT_TRUE(client.connect(gateway.port()).ok());
        WireRequest request;
        request.sequence = ++sequence;
        request.palName = "echo";
        request.input = asciiBytes("churn:" + std::to_string(sequence));
        request.wantQuote = true;
        auto reply = client.call(request);
        ASSERT_TRUE(reply.ok());
        auto summary = summarizeReport(reply->report);
        ASSERT_TRUE(summary.ok());
        EXPECT_TRUE(summary->ok);
        EXPECT_TRUE(summary->quoted);
        EXPECT_EQ(summary->output, request.input);
        client.bye();
    };

    // The first op also builds the cached keys and issues each
    // identity's certificate; count the steady state after it.
    churnOp();
    const crypto::RsaOpCounts before = crypto::rsaOpCounts();
    for (std::uint64_t i = 0; i < ops; ++i)
        churnOp();
    const crypto::RsaOpCounts after = crypto::rsaOpCounts();
    gateway.stop();

    EXPECT_EQ(after.privateOps - before.privateOps, 3 * ops);
    EXPECT_EQ(after.publicOps - before.publicOps, 4 * ops);
}

/**
 * The same op for a returning client: the first connect attests in
 * full and earns a ticket, and every later connect resumes with it, so
 * neither side quotes or verifies. The echo's sePCR quote is the only
 * RSA operation left.
 */
TEST(ExactCounts, ResumedChurnRsaOperationsPerOp)
{
    constexpr std::uint64_t ops = 4;

    Machine machine = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService service(machine);
    PalRegistry registry;
    registry.addEcho("echo");
    Gateway gateway(machine, service, registry, GatewayConfig{});
    gateway.trustClientPal(AttestedIdentity::clientPal());
    ASSERT_TRUE(gateway.start().ok());

    ClientConfig config;
    config.backoff = [](std::uint32_t) {};
    GatewayClient client(config);
    std::uint64_t sequence = 0;
    const auto churnOp = [&] {
        ASSERT_TRUE(client.connect(gateway.port()).ok());
        WireRequest request;
        request.sequence = ++sequence;
        request.palName = "echo";
        request.input = asciiBytes("resumed:" + std::to_string(sequence));
        request.wantQuote = true;
        auto reply = client.call(request);
        ASSERT_TRUE(reply.ok());
        auto summary = summarizeReport(reply->report);
        ASSERT_TRUE(summary.ok());
        EXPECT_TRUE(summary->quoted);
        EXPECT_EQ(summary->output, request.input);
        client.bye();
    };

    churnOp(); // the full handshake that issues the ticket
    ASSERT_TRUE(client.ticket().has_value());
    const crypto::RsaOpCounts before = crypto::rsaOpCounts();
    for (std::uint64_t i = 0; i < ops; ++i)
        churnOp();
    const crypto::RsaOpCounts after = crypto::rsaOpCounts();
    gateway.stop();

    EXPECT_EQ(after.privateOps - before.privateOps, 1 * ops);
    EXPECT_EQ(after.publicOps - before.publicOps, 0u);
    const GatewayStats &stats = gateway.stats();
    EXPECT_EQ(stats.handshakesCompleted, 1u);
    EXPECT_EQ(stats.ticketsIssued, 1u);
    EXPECT_EQ(stats.ticketsResumed, ops);
    EXPECT_EQ(stats.ticketsRefused, 0u);
    EXPECT_EQ(client.ticket()->epoch, ops);
}

} // namespace
} // namespace mintcb::net
