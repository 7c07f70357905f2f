/**
 * @file
 * Native request path pins: what the scheduler-backed paths produce.
 *
 * GoldenReport pins how an ExecutionReport is encoded; these pin which
 * report a request *becomes* on the native (recommended-hardware)
 * path -- identity, output, quote, timestamps, sections -- plus the
 * simulated time each run ends at. One SHA-256 per path:
 *
 *  - one ExecutionService drain, inline (workers = 0) and sharded
 *    (workers = 2), over registry-built requests: echo PALs of two
 *    code sizes, a quoted request, a sealing SecureBody and a request
 *    that misses its deadline;
 *  - the standalone rec-service backend running one quoted request;
 *  - one runOneShot report's measurement share, PAL measurement and
 *    output.
 *
 * A refactor of the request -> program -> report mapping must leave
 * every digest unchanged.
 */

#include <gtest/gtest.h>

#include "backend/registry.hh"
#include "common/hex.hh"
#include "crypto/sha256.hh"
#include "net/registry.hh"
#include "rec/oneshot.hh"
#include "sea/service.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

/** Seals the input to the PAL's sePCR and returns the encoded blob:
 *  the output then depends on the sePCR transcript and the RNG. */
SecureBody
sealingBody()
{
    return [](rec::PalHooks &hooks, const Bytes &input) -> Result<Bytes> {
        auto blob = hooks.seal(input);
        if (!blob)
            return blob.error();
        return blob->encode();
    };
}

net::PalRegistry
pinRegistry()
{
    net::PalRegistry reg;
    reg.addEcho("pin-echo-4k", 4096);
    reg.addEcho("pin-echo-1k", 1024);
    reg.add(
        "pin-sealer", 4096,
        [](PalContext &) { return okStatus(); }, sealingBody());
    return reg;
}

std::vector<net::WireRequest>
pinWireRequests()
{
    std::vector<net::WireRequest> out;
    net::WireRequest echo;
    echo.palName = "pin-echo-4k";
    echo.input = asciiBytes("echo-input");
    out.push_back(echo);

    net::WireRequest quoted;
    quoted.palName = "pin-echo-1k";
    quoted.input = asciiBytes("quoted-input");
    quoted.wantQuote = true;
    quoted.priority = 1;
    out.push_back(quoted);

    net::WireRequest sealing;
    sealing.palName = "pin-sealer";
    sealing.input = asciiBytes("sealed-state");
    sealing.slicedComputeTicks = Duration::millis(2).ticks();
    sealing.dataPages = 2;
    out.push_back(sealing);

    net::WireRequest late;
    late.palName = "pin-echo-1k";
    late.input = asciiBytes("late-input");
    late.slicedComputeTicks = Duration::millis(3).ticks();
    late.deadlineTicks =
        static_cast<std::uint64_t>(Duration::micros(10).ticks());
    out.push_back(late);
    return out;
}

void
hashTime(crypto::Sha256 &ctx, TimePoint t)
{
    ByteWriter w;
    w.u64(static_cast<std::uint64_t>(t.sinceEpoch().ticks()));
    ctx.update(w.take());
}

std::string
drainDigest(std::uint32_t workers)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, 1601);
    ServiceConfig config;
    config.workers = workers;
    ExecutionService svc(m, config);
    const net::PalRegistry reg = pinRegistry();
    for (const net::WireRequest &wire : pinWireRequests()) {
        auto req = reg.build(wire);
        EXPECT_TRUE(req.ok());
        EXPECT_TRUE(svc.submit(req.take()).ok());
    }
    auto reports = svc.drain();
    EXPECT_TRUE(reports.ok());
    EXPECT_EQ(reports->size(), 4u);
    // The scenario covers what it says: all succeed, the second is
    // quoted, the last misses its deadline.
    for (const ExecutionReport &r : *reports)
        EXPECT_TRUE(r.status.ok()) << r.status.error().str();
    EXPECT_TRUE((*reports)[1].quoted);
    EXPECT_FALSE((*reports)[3].deadlineMet);
    EXPECT_EQ((*reports)[0].output, asciiBytes("echo-input"));
    crypto::Sha256 ctx;
    for (const ExecutionReport &r : *reports)
        ctx.update(r.encode());
    hashTime(ctx, m.now());
    return toHex(crypto::toBytes(ctx.finish()));
}

TEST(NativePathPin, InlineServiceDrainReportsArePinned)
{
    EXPECT_EQ(drainDigest(0),
              "7717b822ba638d54507f60b74812271d"
              "a1f9aadce936460a5b7717329ee402cc");
}

TEST(NativePathPin, ShardedServiceDrainReportsArePinned)
{
    EXPECT_EQ(drainDigest(2),
              "e89f30f353df68b940f8e100acd46696"
              "a95fb8063d0cee740a07cb8641619385");
}

TEST(NativePathPin, StandaloneRecServiceReportIsPinned)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, 1602);
    const net::PalRegistry reg = pinRegistry();
    net::WireRequest wire;
    wire.palName = "pin-sealer";
    wire.input = asciiBytes("standalone-input");
    wire.wantQuote = true;
    auto req = reg.build(wire);
    ASSERT_TRUE(req.ok());
    const backend::Backend *b =
        backend::BackendRegistry::standard().find("rec-service");
    ASSERT_NE(b, nullptr);
    auto report = b->run(m, *req, 1);
    ASSERT_TRUE(report.ok()) << report.error().str();
    EXPECT_TRUE(report->quoted);
    crypto::Sha256 ctx;
    ctx.update(report->encode());
    hashTime(ctx, m.now());
    EXPECT_EQ(toHex(crypto::toBytes(ctx.finish())),
              "17a98e41f07a91c84322a6b509019918"
              "2ed666c2d77df8d9e657134de9cb1a90");
}

TEST(NativePathPin, OneShotReportIsPinned)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, 1603);
    rec::SecureExecutive exec(m, 4);
    auto report = rec::runOneShot(
        exec,
        Pal::fromLogic("pin-oneshot", 4096,
                       [](PalContext &) { return okStatus(); }),
        [](rec::PalHooks &hooks) -> Result<Bytes> {
            auto blob = hooks.seal(asciiBytes("oneshot-state"));
            if (!blob)
                return blob.error();
            return blob->encode();
        });
    ASSERT_TRUE(report.ok()) << report.error().str();
    crypto::Sha256 ctx;
    ByteWriter w;
    w.u64(static_cast<std::uint64_t>(report->measurement.ticks()));
    ctx.update(w.take());
    ctx.update(report->palMeasurement);
    ctx.update(report->output);
    hashTime(ctx, m.now());
    EXPECT_EQ(toHex(crypto::toBytes(ctx.finish())),
              "ce1c26def7c583f3e3441ca9f62b1091"
              "9ad47ad6210bc091603f4a0fc476bdfd");
}

} // namespace
} // namespace mintcb::sea
