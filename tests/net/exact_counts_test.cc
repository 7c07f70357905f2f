/**
 * @file
 * Exact, host-independent operation counts on the request path: RSA
 * operations per gateway op, Montgomery products per RSA signature,
 * hash compressions per sealed blob, store write, transport exchange
 * and echo request, and file system calls per store write. A count is
 * the same on every host and every run, so it is gated with EXPECT_EQ:
 * a change that adds or removes an RSA operation, a Montgomery product,
 * a hash block or a file system call fails here, whatever the host's
 * speed.
 */

#include <gtest/gtest.h>

#include "common/file.hh"
#include "common/hex.hh"
#include "crypto/keycache.hh"
#include "crypto/montgomery.hh"
#include "crypto/rsa.hh"
#include "crypto/sha256.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "store/storetest.hh"
#include "tpm/blob.hh"
#include "tpm/transport.hh"

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

/**
 * One 2048-bit CRT rsaSignSha1, the quote's private operation: two
 * 1024-bit modExps (dP has 1023 bits, dQ 1024), each a 4-bit fixed
 * window over 256 windows. Per half: 1 product into the Montgomery
 * domain, 14 to fill the table, 4 squarings for each of the 255
 * windows below the top one, and 1 product out of the domain. On top
 * of that comes 1 multiply per nonzero window below the top: 481 of
 * the 510 for this key. The total changes only if the window or the
 * exponentiation does; every squaring takes the squaring kernel.
 */
TEST(ExactCounts, RsaSignMontgomeryProducts)
{
    const crypto::RsaPrivateKey &key =
        crypto::cachedKey("privacy-ca", crypto::tpmKeyBits);
    ASSERT_TRUE(key.hasCrt());
    ASSERT_EQ(key.dP.bitLength(), 1023u);
    ASSERT_EQ(key.dQ.bitLength(), 1024u);
    const crypto::MontCounts before = crypto::montCounts();
    (void)crypto::rsaSignSha1(key, asciiBytes("exact-counts montgomery"));
    const crypto::MontCounts after = crypto::montCounts();
    const std::uint64_t products =
        (after.mul - before.mul) + (after.sqr - before.sqr);
    EXPECT_EQ(products, 2 * (1 + 14 + 4 * 255 + 1) + 481u);
    EXPECT_EQ(after.sqr - before.sqr, 2 * 4 * 255u);
}

/** Hash compressions made on this thread by @p work. */
template <typename Work>
crypto::HashBlockCounts
hashBlocksOf(Work &&work)
{
    const crypto::HashBlockCounts before = crypto::hashBlockCounts();
    work();
    const crypto::HashBlockCounts after = crypto::hashBlockCounts();
    return {after.sha1 - before.sha1, after.sha256 - before.sha256};
}

/**
 * One 4 KiB sealBlob: the payload's keystream is 128 blocks of 32
 * bytes. crypto::hmacSha256Xor absorbs the two key pads once and then
 * pays 2 compressions a block (inner and outer finish). The trailer MAC
 * over the 4197-byte MAC input adds 2 pad blocks, 66 message blocks
 * and 1 outer block.
 */
TEST(ExactCounts, SealBlobHashBlocks)
{
    const crypto::RsaPrivateKey &srk =
        crypto::cachedKey("exact-counts-srk", 512);
    const tpm::SealPolicy policy{{17, Bytes(20, 0x17)}};
    Rng rng(5);
    const Bytes payload(4096, 0x5a);
    const auto counts = hashBlocksOf(
        [&] { (void)tpm::sealBlob(srk.pub, rng, payload, policy); });
    EXPECT_EQ(counts.sha256, 2 * 128 + 2 + 69u);
    EXPECT_EQ(counts.sha1, 0u);
}

/**
 * One steady-state storeSealedState of a 1 KiB blob (a put and a
 * commit), after a first write that settles the store. The mutation
 * plaintext (op, key "pal-state", value) is 1042 bytes, a 33-block
 * keystream at 2 compressions a block plus 2 for the key pads. Its MAC
 * streams 1065 bytes (2 pads, 17 message blocks, 1 outer) and the
 * commit MAC 30 bytes (2 pads, 1 message block, 1 outer). Counter and
 * NV persistence hash nothing.
 */
TEST(ExactCounts, StoreSealedStateHashBlocks)
{
    storetest::TempDir tmp;
    auto store = store::SealedStore::open(storetest::configFor(tmp));
    ASSERT_TRUE(store.ok());
    const Bytes blob(1024, 0xb1);
    ASSERT_TRUE((*store)->storeSealedState("warm", blob).ok());
    const auto counts = hashBlocksOf([&] {
        ASSERT_TRUE((*store)->storeSealedState("pal-state", blob).ok());
    });
    EXPECT_EQ(counts.sha256, 2 * 33 + 2 + 20 + 4u);
    EXPECT_EQ(counts.sha1, 0u);
}

/**
 * One steady-state storeSealedState (a put and a commit, no checkpoint
 * due), after a first write that settles the store. The put appends
 * its record to the open WAL (1 write) and the commit appends the
 * commit record (1 write) and fsyncs the log (1 fsync). The counter
 * advance then overwrites the older chip-NV slot in place (1 pwrite)
 * and syncs its data (1 fdatasync): the slot file never changes size,
 * so no tmp file is opened, no rename made and no directory fsynced.
 */
TEST(ExactCounts, StoreSealedStateFileOps)
{
    storetest::TempDir tmp;
    auto store = store::SealedStore::open(storetest::configFor(tmp));
    ASSERT_TRUE(store.ok());
    const Bytes blob(1024, 0xb1);
    ASSERT_TRUE((*store)->storeSealedState("warm", blob).ok());
    const FileOpCounts before = fileOpCounts();
    ASSERT_TRUE((*store)->storeSealedState("pal-state", blob).ok());
    const FileOpCounts after = fileOpCounts();
    EXPECT_EQ(after.writes - before.writes, 2u);
    EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
    EXPECT_EQ(after.pwrites - before.pwrites, 1u);
    EXPECT_EQ(after.fdatasyncs - before.fdatasyncs, 1u);
    EXPECT_EQ(after.opens - before.opens, 0u);
    EXPECT_EQ(after.renames - before.renames, 0u);
}

/**
 * One pipelined-echo request as perfbench sends it: the "echo" PAL
 * (4 KiB image), a 64-byte input and 200 us of sliced compute, drained
 * inline on this thread after a warm-up drain that opens the audit
 * transport session.
 *
 * SHA-1: SLAUNCH hashes the 4096-byte image (64 message blocks and 1
 * pad block) and extends the sePCR with it (1). The PAL body hashes its
 * 64-byte input and output (2 blocks each) and extends each into the
 * sePCR (1 each). The audit trail hashes the 297-byte encoded report
 * (5) and the TPM extends the audit PCR with it (1).
 *
 * SHA-256, all of it the audit's transport exchange: resuming the
 * session derives the epoch key on both sides (an HMAC over 20 bytes:
 * 2 pads, 1 message block, 1 outer) and the TPM hashes the 32-byte
 * ticket key (1). The 42-byte batch command is a 2-block keystream
 * (2 pads and 2 compressions a block), generated to encrypt and again
 * to decrypt, and both sides MAC its 23-byte header and ciphertext
 * (2 pads, 2 message blocks, 1 outer). The 10-byte response is a
 * 1-block keystream, also generated twice, and both sides MAC it
 * (2 pads, 1 message block, 1 outer).
 */
TEST(ExactCounts, EchoRequestHashBlocks)
{
    Machine machine = Machine::forPlatform(PlatformId::recTestbed);
    sea::ExecutionService service(machine);
    PalRegistry registry;
    registry.addEcho("echo");
    std::uint64_t sequence = 0;
    const auto echoOnce = [&] {
        WireRequest wire;
        wire.sequence = ++sequence;
        wire.palName = "echo";
        wire.input = Bytes(64, static_cast<std::uint8_t>(sequence));
        wire.slicedComputeTicks = Duration::micros(200).ticks();
        auto request = registry.build(wire);
        ASSERT_TRUE(request.ok());
        auto report = service.runOne(request.take());
        ASSERT_TRUE(report.ok());
        ASSERT_TRUE(report->status.ok());
        EXPECT_EQ(report->output, wire.input);
    };
    echoOnce();
    const auto counts = hashBlocksOf(echoOnce);
    EXPECT_EQ(counts.sha1, (64 + 1 + 1) + 2 * (2 + 1) + (5 + 1u));
    EXPECT_EQ(counts.sha256, (4 + 4 + 1) + 2 * (2 + 2 * 2) + 2 * 5 +
                                 2 * (2 + 2) + 2 * 4u);
}

/**
 * One transport exchange: a getRandom of 256 bytes. The command
 * stream is 9 bytes (1 block) and the response stream 261 bytes (9
 * blocks); each is generated twice, once to encrypt and once to
 * decrypt, at 2 compressions a block plus 2 for the key pads. Each
 * side MACs each message once: 4 compressions for the command (23-byte
 * header plus 9 bytes) and 8 for the response (2 pads, 5 message
 * blocks, 1 outer).
 */
TEST(ExactCounts, TransportExchangeHashBlocks)
{
    tpm::Tpm chip(tpm::TpmVendor::ideal, 3);
    tpm::TpmTransportServer server(chip);
    Rng rng(3);
    auto opened = tpm::TransportClient::open(chip.srkPublic(), rng);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(server.accept(opened->envelope).ok());
    tpm::TransportClient &client = opened->client;
    const auto counts = hashBlocksOf([&] {
        const tpm::WrappedMessage command =
            client.wrapCommand(tpm::TransportOp::getRandom, 256, {});
        auto response = server.execute(command);
        ASSERT_TRUE(response.ok());
        auto plain = client.unwrapResponse(*response);
        ASSERT_TRUE(plain.ok());
        EXPECT_EQ(plain->size(), 5 + 256u);
    });
    EXPECT_EQ(counts.sha256,
              2 * ((2 * 1 + 2) + (2 * 9 + 2)) + 2 * (4 + 8u));
    EXPECT_EQ(counts.sha1, 0u);
}

} // namespace
} // namespace mintcb::net
