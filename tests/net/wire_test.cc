/**
 * @file
 * Wire-protocol robustness tests: every decoder is total. Truncated,
 * oversized, bit-flipped, and random-garbage inputs must come back as
 * clean protocol errors -- never a crash, never a hang, never a bogus
 * success that round-trips differently.
 */

#include <gtest/gtest.h>

#include <functional>

#include "common/hex.hh"
#include "common/rng.hh"
#include "net/wire.hh"
#include "sea/request.hh"

namespace mintcb::net
{
namespace
{

Frame
sampleFrame()
{
    HelloPayload hello;
    hello.nonce = asciiBytes("nonce-nonce-nonce-20");
    hello.clientName = "wire-test";
    return Frame{FrameType::hello, encode(hello)};
}

TEST(Framing, RoundTrip)
{
    const Frame frame = sampleFrame();
    Bytes buf = encodeFrame(frame);
    auto taken = takeFrame(buf);
    ASSERT_TRUE(taken.ok());
    ASSERT_TRUE(taken->has_value());
    EXPECT_EQ((*taken)->type, FrameType::hello);
    EXPECT_EQ((*taken)->payload, frame.payload);
    EXPECT_TRUE(buf.empty()); // fully consumed
}

TEST(Framing, ByteAtATimeDelivery)
{
    // A TCP stream can deliver any fragmentation; the framer must
    // report need-more-bytes until the frame completes, then yield it.
    const Bytes wire = encodeFrame(sampleFrame());
    Bytes buf;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        buf.push_back(wire[i]);
        auto taken = takeFrame(buf);
        ASSERT_TRUE(taken.ok()) << "at byte " << i;
        EXPECT_FALSE(taken->has_value()) << "at byte " << i;
    }
    buf.push_back(wire.back());
    auto taken = takeFrame(buf);
    ASSERT_TRUE(taken.ok());
    EXPECT_TRUE(taken->has_value());
}

TEST(Framing, TwoFramesQueueInOrder)
{
    Bytes buf = encodeFrame(sampleFrame());
    const Bytes second = encodeFrame({FrameType::flush, Bytes{}});
    buf.insert(buf.end(), second.begin(), second.end());

    auto first = takeFrame(buf);
    ASSERT_TRUE(first.ok() && first->has_value());
    EXPECT_EQ((*first)->type, FrameType::hello);
    auto next = takeFrame(buf);
    ASSERT_TRUE(next.ok() && next->has_value());
    EXPECT_EQ((*next)->type, FrameType::flush);
    EXPECT_TRUE(buf.empty());
}

TEST(Framing, RejectsBadMagic)
{
    Bytes buf = encodeFrame(sampleFrame());
    buf[0] ^= 0xff;
    EXPECT_FALSE(takeFrame(buf).ok());
}

TEST(Framing, RejectsVersionMismatch)
{
    Bytes buf = encodeFrame(sampleFrame());
    buf[5] = static_cast<std::uint8_t>(wireVersion + 1); // u16 BE low byte
    EXPECT_FALSE(takeFrame(buf).ok());
}

TEST(Framing, RejectsOversizedLength)
{
    // A malicious length field must be refused from the header alone,
    // before any allocation proportional to it.
    Bytes buf = encodeFrame(sampleFrame());
    buf[8] = 0x7f; // length = ~2 GiB
    buf[9] = 0xff;
    auto taken = takeFrame(buf);
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.error().code, Errc::invalidArgument);
}

TEST(Framing, RejectsUnknownFrameType)
{
    Bytes buf = encodeFrame(sampleFrame());
    buf[7] = 0x7f; // type 0x017f: not a FrameType
    EXPECT_FALSE(takeFrame(buf).ok());
}

TEST(Codecs, HelloRoundTrip)
{
    HelloPayload p;
    p.nonce = asciiBytes("fresh");
    p.clientName = "client-7";
    auto decoded = decodeHello(encode(p));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->version, wireVersion);
    EXPECT_EQ(decoded->nonce, p.nonce);
    EXPECT_EQ(decoded->clientName, p.clientName);
}

TEST(Codecs, SubmitRoundTrip)
{
    WireRequest r;
    r.sequence = 42;
    r.affinity = 9;
    r.priority = -3;
    r.wantQuote = true;
    r.dataPages = 4;
    r.slicedComputeTicks = 123456789;
    r.deadlineTicks = 987654321;
    r.palName = "echo";
    r.input = asciiBytes("payload");
    auto decoded = decodeSubmit(encode(r));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->sequence, r.sequence);
    EXPECT_EQ(decoded->affinity, r.affinity);
    EXPECT_EQ(decoded->priority, r.priority);
    EXPECT_EQ(decoded->wantQuote, r.wantQuote);
    EXPECT_EQ(decoded->dataPages, r.dataPages);
    EXPECT_EQ(decoded->slicedComputeTicks, r.slicedComputeTicks);
    EXPECT_EQ(decoded->deadlineTicks, r.deadlineTicks);
    EXPECT_EQ(decoded->palName, r.palName);
    EXPECT_EQ(decoded->input, r.input);
}

TEST(Codecs, BusyAndErrorRoundTrip)
{
    BusyPayload busy;
    busy.sequence = 5;
    busy.reason = BusyReason::rateLimited;
    busy.retryAfterMillis = 70;
    auto b = decodeBusy(encode(busy));
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->sequence, 5u);
    EXPECT_EQ(b->reason, BusyReason::rateLimited);
    EXPECT_EQ(b->retryAfterMillis, 70u);

    ErrorPayload err;
    err.code = static_cast<std::uint16_t>(Errc::permissionDenied);
    err.message = "refused";
    auto e = decodeError(encode(err));
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->code, err.code);
    EXPECT_EQ(e->message, err.message);
}

TEST(Codecs, RejectTrailingBytes)
{
    // Trailing garbage after a valid payload means a framing bug or an
    // attack; a decoder that silently ignores it would mask both.
    HelloPayload p;
    p.nonce = asciiBytes("n");
    Bytes wire = encode(p);
    wire.push_back(0x00);
    EXPECT_FALSE(decodeHello(wire).ok());

    Bytes submit = encode(WireRequest{});
    submit.push_back(0xab);
    EXPECT_FALSE(decodeSubmit(submit).ok());
}

/** Every decoder, driven by one table so the fuzz sweeps hit all. */
using Decoder = std::function<bool(const Bytes &)>;

std::vector<std::pair<const char *, Decoder>>
allDecoders()
{
    return {
        {"hello", [](const Bytes &b) { return decodeHello(b).ok(); }},
        {"challenge",
         [](const Bytes &b) { return decodeChallenge(b).ok(); }},
        {"auth", [](const Bytes &b) { return decodeAuth(b).ok(); }},
        {"authOk", [](const Bytes &b) { return decodeAuthOk(b).ok(); }},
        {"submit", [](const Bytes &b) { return decodeSubmit(b).ok(); }},
        {"report", [](const Bytes &b) { return decodeReport(b).ok(); }},
        {"busy", [](const Bytes &b) { return decodeBusy(b).ok(); }},
        {"error", [](const Bytes &b) { return decodeError(b).ok(); }},
        {"summary",
         [](const Bytes &b) { return summarizeReport(b).ok(); }},
    };
}

TEST(Fuzz, RandomGarbageNeverCrashesAnyDecoder)
{
    Rng rng(0x5eed);
    for (int round = 0; round < 200; ++round) {
        const Bytes garbage = rng.bytes(round % 97);
        for (auto &[name, decode] : allDecoders())
            (void)decode(garbage); // must return, not crash
        Bytes buf = garbage;
        (void)takeFrame(buf);
    }
}

TEST(Fuzz, TruncationSweepIsAlwaysClean)
{
    // Every strict prefix of a valid submit payload must decode to a
    // clean error (length-prefixed fields make no prefix valid).
    WireRequest r;
    r.sequence = 7;
    r.palName = "echo";
    r.input = asciiBytes("0123456789abcdef");
    const Bytes wire = encode(r);
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const Bytes prefix(wire.begin(),
                           wire.begin() +
                               static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(decodeSubmit(prefix).ok()) << "prefix " << len;
    }
}

TEST(Fuzz, BitFlipSweepNeverCrashes)
{
    WireRequest r;
    r.sequence = 9;
    r.palName = "mutate-me";
    r.input = asciiBytes("sensitive");
    const Bytes wire = encode(r);
    for (std::size_t i = 0; i < wire.size(); ++i) {
        Bytes mutated = wire;
        mutated[i] ^= 0x80;
        (void)decodeSubmit(mutated); // any Result is fine; no crash
    }
}

TEST(ReportSummary, MirrorsExecutionReportEncoding)
{
    sea::ExecutionReport report;
    report.requestId = 31;
    report.palName = "summary-pal";
    report.output = asciiBytes("the output");
    report.palMeasurement = asciiBytes("20-byte-measurement!");
    report.phases.compute = Duration::millis(12);
    report.queueWait = Duration::micros(500);
    report.total = Duration::millis(13);
    report.launches = 3;
    report.yields = 2;
    report.shard = 5;
    report.deadlineMet = false;

    auto summary = summarizeReport(report.encode());
    ASSERT_TRUE(summary.ok());
    EXPECT_EQ(summary->requestId, 31u);
    EXPECT_EQ(summary->palName, "summary-pal");
    EXPECT_TRUE(summary->ok);
    EXPECT_EQ(summary->output, report.output);
    EXPECT_EQ(summary->palMeasurement, report.palMeasurement);
    EXPECT_EQ(summary->palCompute, report.phases.compute);
    EXPECT_EQ(summary->queueWait, report.queueWait);
    EXPECT_EQ(summary->total, report.total);
    EXPECT_EQ(summary->launches, 3u);
    EXPECT_EQ(summary->yields, 2u);
    EXPECT_EQ(summary->shard, 5u);
    EXPECT_FALSE(summary->deadlineMet);
}

TEST(ReportSummary, CarriesFailureStatus)
{
    sea::ExecutionReport report;
    report.palName = "failing";
    report.status = Error(Errc::resourceExhausted, "no sePCR free");
    auto summary = summarizeReport(report.encode());
    ASSERT_TRUE(summary.ok());
    EXPECT_FALSE(summary->ok);
    EXPECT_EQ(summary->errorCode,
              static_cast<std::uint16_t>(Errc::resourceExhausted));
    EXPECT_EQ(summary->errorMessage, "no sePCR free");
}

// --- Zero-copy framing: beginFrame/endFrame must emit exactly the
// --- bytes of encodeFrame wherever the buffer already ends, and the
// --- offset-based frame extractor must behave like takeFrame without
// --- consuming the buffer. (Per-type bytes are pinned in
// --- golden_frames_test.cc.)

TEST(ZeroCopy, BeginEndFrameAppendsAfterExistingBytes)
{
    const Frame frame = sampleFrame();
    Bytes out = asciiBytes("prefix-"); // must append, not clobber
    const std::size_t at = beginFrame(frame.type, out);
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    endFrame(out, at);
    Bytes expected = asciiBytes("prefix-");
    const Bytes wire = encodeFrame(frame);
    expected.insert(expected.end(), wire.begin(), wire.end());
    EXPECT_EQ(out, expected);
}

TEST(ZeroCopy, BeginEndFrameMatchesEncodeFrame)
{
    WireRequest r;
    r.sequence = 7;
    r.palName = "echo";
    r.input = asciiBytes("in-place");

    Bytes out;
    const std::size_t at = beginFrame(FrameType::submit, out);
    encodeInto(r, out);
    endFrame(out, at);
    EXPECT_EQ(out, encodeFrame({FrameType::submit, encode(r)}));

    // A second frame appended to the same buffer patches its own
    // length field, not the first frame's.
    const std::size_t at2 = beginFrame(FrameType::flush, out);
    endFrame(out, at2);
    const Bytes flush = encodeFrame({FrameType::flush, Bytes{}});
    EXPECT_EQ(Bytes(out.end() - static_cast<std::ptrdiff_t>(flush.size()),
                    out.end()),
              flush);
}

TEST(ZeroCopy, TakeFrameIntoWalksAStreamWithoutConsuming)
{
    Bytes wire = encodeFrame(sampleFrame());
    const Bytes second = encodeFrame({FrameType::flush, Bytes{}});
    wire.insert(wire.end(), second.begin(), second.end());

    std::size_t offset = 0;
    Frame scratch;
    auto first = takeFrameInto(wire, offset, scratch);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(*first);
    EXPECT_EQ(scratch.type, FrameType::hello);
    EXPECT_EQ(scratch.payload, sampleFrame().payload);

    auto next = takeFrameInto(wire, offset, scratch);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(*next);
    EXPECT_EQ(scratch.type, FrameType::flush);
    EXPECT_TRUE(scratch.payload.empty());
    EXPECT_EQ(offset, wire.size());

    // Nothing left: need-more-bytes, and the buffer was never mutated.
    auto done = takeFrameInto(wire, offset, scratch);
    ASSERT_TRUE(done.ok());
    EXPECT_FALSE(*done);
    Bytes check = encodeFrame(sampleFrame());
    check.insert(check.end(), second.begin(), second.end());
    EXPECT_EQ(wire, check);
}

TEST(ZeroCopy, TakeFrameIntoPartialFrameNeedsMoreBytes)
{
    const Bytes wire = encodeFrame(sampleFrame());
    Frame scratch;
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const Bytes partial(wire.begin(),
                            wire.begin() + static_cast<std::ptrdiff_t>(cut));
        std::size_t offset = 0;
        auto taken = takeFrameInto(partial, offset, scratch);
        ASSERT_TRUE(taken.ok()) << "cut " << cut;
        EXPECT_FALSE(*taken) << "cut " << cut;
        EXPECT_EQ(offset, 0u) << "cut " << cut;
    }
}

TEST(ZeroCopy, TakeFrameIntoRejectsWhatTakeFrameRejects)
{
    // Same corruption cases as the takeFrame tests above: bad magic,
    // version mismatch, oversized length, unknown type.
    const Bytes good = encodeFrame(sampleFrame());
    const std::pair<std::size_t, std::uint8_t> corruptions[] = {
        {0, 0xff}, // magic
        {5, static_cast<std::uint8_t>(wireVersion + 1)},
        {8, 0x7f}, // length ~2 GiB
        {7, 0x7f}, // unknown type
    };
    for (const auto &[index, value] : corruptions) {
        Bytes wire = good;
        wire[index] = index == 0 ? wire[0] ^ value : value;
        Bytes erased = wire;
        std::size_t offset = 0;
        Frame scratch;
        auto a = takeFrame(erased);
        auto b = takeFrameInto(wire, offset, scratch);
        ASSERT_FALSE(a.ok()) << "index " << index;
        ASSERT_FALSE(b.ok()) << "index " << index;
        EXPECT_EQ(a.error().code, b.error().code) << "index " << index;
        EXPECT_EQ(offset, 0u);
    }
}

} // namespace
} // namespace mintcb::net
