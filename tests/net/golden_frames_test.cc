/**
 * @file
 * Golden bytes for the two formats that share the 12-byte record
 * header (u32 magic | u16 version | u16 type | u32 length):
 *
 *  - one MGW1 frame of every FrameType, encoded both through the
 *    allocating path (encodeFrame over a payload) and in place
 *    (beginFrame / payload encoder / endFrame);
 *  - one MWL1 record of every RecordType, as appendRecord writes it.
 *
 * Plus one of each of three formats that still frame themselves:
 *
 *  - EXR2, the encoded sea::ExecutionReport a report frame carries;
 *  - MMB1, the store::MigrationBundle a migrated frame carries;
 *  - MSS1, the store::EpochContainer a checkpoint writes, around a
 *    sealed blob of fixed bytes, and MNV1, the same container as one
 *    chip-NV slot, around the TNV1 image of a one-counter chip.
 *
 * The hex is pinned, not derived: any codec refactor that changes one
 * byte on the wire or on disk fails here, whatever path produced it.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "common/hex.hh"
#include "net/wire.hh"
#include "sea/request.hh"
#include "store/engine.hh"
#include "store/migrate.hh"
#include "store/wal.hh"
#include "tpm/blob.hh"

namespace mintcb::net
{
namespace
{

/** One pinned frame: its type, the payload the allocating encoder
 *  returns, the same payload appended in place, and the whole frame
 *  (header + payload) as hex. */
struct GoldenFrame
{
    FrameType type;
    Bytes payload;
    std::function<void(Bytes &)> encodeInPlace;
    const char *hex;
};

std::vector<GoldenFrame>
goldenFrames()
{
    HelloPayload hello;
    hello.nonce = asciiBytes("fresh");
    hello.clientName = "zc";
    ChallengePayload challenge;
    challenge.attestation = asciiBytes("attn");
    challenge.nonce = asciiBytes("gw-nonce");
    AuthPayload auth;
    auth.attestation = asciiBytes("client-attn");
    AuthOkPayload ok;
    ok.sessionId = 99;
    ok.subject = "platform";
    WireRequest submit;
    submit.sequence = 3;
    submit.affinity = 5;
    submit.priority = -2;
    submit.wantQuote = true;
    submit.dataPages = 2;
    submit.slicedComputeTicks = 1000;
    submit.deadlineTicks = 77;
    submit.palName = "echo";
    submit.backend = "rec";
    submit.input = asciiBytes("in");
    ReportPayload report;
    report.sequence = 3;
    report.report = asciiBytes("encoded-report");
    BusyPayload busy;
    busy.sequence = 3;
    busy.reason = BusyReason::rateLimited;
    busy.retryAfterMillis = 25;
    ErrorPayload error;
    error.code = 7;
    error.message = "nope";
    MigrateBeginPayload begin;
    begin.storeName = "default";
    MigrateChallengePayload mchallenge;
    mchallenge.nonce = asciiBytes("mc-nonce");
    MigratePayload migrate;
    migrate.storeName = "default";
    migrate.nonce = asciiBytes("n");
    migrate.targetSrk = asciiBytes("srk");
    migrate.attestation = asciiBytes("att");
    MigratedPayload migrated;
    migrated.bundle = asciiBytes("bundle");
    TicketPayload ticket;
    ticket.id = asciiBytes("tid");
    ticket.secret = asciiBytes("sec");
    ticket.epoch = 2;
    ResumePayload resume;
    resume.id = asciiBytes("tid");
    resume.epoch = 2;
    resume.nonce = asciiBytes("rn");
    resume.proof = asciiBytes("pf");
    ResumedPayload resumed;
    resumed.sessionId = 99;
    resumed.proof = asciiBytes("gp");

    return {
        {FrameType::hello, encode(hello),
         [=](Bytes &o) { encodeInto(hello, o); },
         "4d47573100010001000000110001000000056672657368000000027a"
         "63"},
        {FrameType::challenge, encode(challenge),
         [=](Bytes &o) { encodeInto(challenge, o); },
         "4d4757310001000200000014000000046174746e0000000867772d6e"
         "6f6e6365"},
        {FrameType::auth, encode(auth),
         [=](Bytes &o) { encodeInto(auth, o); },
         "4d475731000100030000000f0000000b636c69656e742d6174746e"},
        {FrameType::authOk, encode(ok),
         [=](Bytes &o) { encodeInto(ok, o); },
         "4d4757310001000400000014000000000000006300000008706c6174"
         "666f726d"},
        {FrameType::submit, encode(submit),
         [=](Bytes &o) { encodeInto(submit, o); },
         "4d475731000100050000003e00000000000000030000000000000005"
         "fffffffe010000000200000000000003e8000000000000004d000000"
         "046563686f0000000372656300000002696e"},
        {FrameType::report, encode(report),
         [=](Bytes &o) { encodeInto(report, o); },
         "4d475731000100060000001a00000000000000030000000e656e636f"
         "6465642d7265706f7274"},
        {FrameType::busy, encode(busy),
         [=](Bytes &o) { encodeInto(busy, o); },
         "4d475731000100070000000e0000000000000003000200000019"},
        {FrameType::flush, Bytes{}, [](Bytes &) {},
         "4d4757310001000800000000"},
        {FrameType::bye, Bytes{}, [](Bytes &) {},
         "4d4757310001000900000000"},
        {FrameType::error, encode(error),
         [=](Bytes &o) { encodeInto(error, o); },
         "4d4757310001000a0000000a0007000000046e6f7065"},
        {FrameType::migrateBegin, encode(begin),
         [=](Bytes &o) { encodeInto(begin, o); },
         "4d4757310001000b0000000b0000000764656661756c74"},
        {FrameType::migrateChallenge, encode(mchallenge),
         [=](Bytes &o) { encodeInto(mchallenge, o); },
         "4d4757310001000c0000000c000000086d632d6e6f6e6365"},
        {FrameType::migrate, encode(migrate),
         [=](Bytes &o) { encodeInto(migrate, o); },
         "4d4757310001000d0000001e0000000764656661756c74000000016e"
         "0000000373726b00000003617474"},
        {FrameType::migrated, encode(migrated),
         [=](Bytes &o) { encodeInto(migrated, o); },
         "4d4757310001000e0000000a0000000662756e646c65"},
        {FrameType::ticket, encode(ticket),
         [=](Bytes &o) { encodeInto(ticket, o); },
         "4d4757310001000f0000001600000003746964000000037365630000"
         "000000000002"},
        {FrameType::resume, encode(resume),
         [=](Bytes &o) { encodeInto(resume, o); },
         "4d475731000100100000001b00000003746964000000000000000200"
         "000002726e000000027066"},
        {FrameType::resumed, encode(resumed),
         [=](Bytes &o) { encodeInto(resumed, o); },
         "4d475731000100110000000e0000000000000063000000026770"},
    };
}

TEST(GoldenFrames, EveryFrameTypeIsPinned)
{
    std::set<FrameType> pinned;
    for (const GoldenFrame &g : goldenFrames())
        pinned.insert(g.type);
    for (auto t = static_cast<std::uint16_t>(FrameType::hello);
         t <= static_cast<std::uint16_t>(FrameType::resumed); ++t) {
        EXPECT_TRUE(pinned.count(static_cast<FrameType>(t)))
            << frameTypeName(static_cast<FrameType>(t));
    }
    EXPECT_EQ(pinned.size(), 17u);
}

TEST(GoldenFrames, EncodeFrameEmitsThePinnedBytes)
{
    for (const GoldenFrame &g : goldenFrames()) {
        EXPECT_EQ(toHex(encodeFrame({g.type, g.payload})), g.hex)
            << frameTypeName(g.type);
    }
}

TEST(GoldenFrames, InPlaceEncodersEmitThePinnedBytes)
{
    for (const GoldenFrame &g : goldenFrames()) {
        // Appends after whatever the buffer already holds.
        Bytes out = asciiBytes("prefix-");
        const std::size_t at = beginFrame(g.type, out);
        g.encodeInPlace(out);
        endFrame(out, at);
        EXPECT_EQ(toHex(out), toHex(asciiBytes("prefix-")) + g.hex)
            << frameTypeName(g.type);
    }
}

TEST(GoldenFrames, PinnedFramesParseBack)
{
    for (const GoldenFrame &g : goldenFrames()) {
        auto wire = fromHex(g.hex);
        ASSERT_TRUE(wire.ok());
        auto taken = takeFrame(*wire);
        ASSERT_TRUE(taken.ok()) << frameTypeName(g.type);
        ASSERT_TRUE(taken->has_value()) << frameTypeName(g.type);
        EXPECT_EQ((*taken)->type, g.type);
        EXPECT_EQ((*taken)->payload, g.payload);
        EXPECT_TRUE(wire->empty());
    }
}

/** One pinned MWL1 record: appendRecord's output as hex. */
struct GoldenRecord
{
    store::RecordType type;
    Bytes payload;
    const char *hex;
};

std::vector<GoldenRecord>
goldenRecords()
{
    const Bytes logKey(32, 0x42);
    store::Mutation put;
    put.seq = 1;
    put.key = "k";
    put.value = asciiBytes("v");
    store::Mutation remove;
    remove.isRemove = true;
    remove.seq = 2;
    remove.key = "k";
    return {
        {store::RecordType::keyBlob, asciiBytes("sealed-key-blob"),
         "4d574c31000100010000000f7365616c65642d6b65792d626c6f62e8"
         "601cb8"},
        {store::RecordType::put, store::encodeMutation(logKey, put),
         "4d574c31000100020000003700000000000000010000000b03e225ce"
         "861add01b4753f960c75e280c5924867711f4f746705339256f9524f"
         "b1c35d6b8067e415c635b92a020732"},
        {store::RecordType::remove, store::encodeMutation(logKey, remove),
         "4d574c31000100030000003600000000000000020000000a44c88055"
         "fcfdfaa044403a57e6a127b97c96fe4ddfbb9107ae4d8b2e71e44ec1"
         "47979ce3811bdd162ca4ef923096"},
        {store::RecordType::commit,
         store::encodeCommit(logKey, store::CommitMark{1, 2}),
         "4d574c31000100040000003000000000000000010000000000000002"
         "07df96ffbfc8da561056f9a1273a583ae8a027ea13e0de0d17fa8ea2"
         "795b3656a85bbb5a"},
    };
}

TEST(GoldenWal, AppendRecordEmitsThePinnedBytes)
{
    Bytes image;
    for (const GoldenRecord &g : goldenRecords()) {
        Bytes record;
        store::appendRecord(record, g.type, g.payload);
        EXPECT_EQ(toHex(record), g.hex) << store::recordTypeName(g.type);
        store::appendRecord(image, g.type, g.payload);
    }
    // The pinned records, back to back, scan as one clean log.
    const store::WalScan scan = store::scanWal(image);
    EXPECT_FALSE(scan.torn) << scan.tornReason;
    ASSERT_EQ(scan.records.size(), 4u);
    EXPECT_EQ(scan.validBytes, image.size());
    const auto golden = goldenRecords();
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(scan.records[i].type, golden[i].type);
        EXPECT_EQ(scan.records[i].payload, golden[i].payload);
    }
}

TEST(GoldenReport, ExecutionReportEncodeEmitsThePinnedBytes)
{
    sea::ExecutionReport report;
    report.requestId = 7;
    report.palName = "echo";
    report.backend = "rec";
    report.output = asciiBytes("out");
    report.palMeasurement = asciiBytes("meas");
    report.quoted = true;
    report.quote.selection = {17};
    report.quote.values = {asciiBytes("pcr")};
    report.quote.nonce = asciiBytes("n");
    report.quote.signature = asciiBytes("sig");
    report.phases.launch = Duration::picos(1);
    report.phases.compute = Duration::picos(2);
    report.phases.transition = Duration::picos(3);
    report.phases.attestation = Duration::picos(4);
    report.phases.teardown = Duration::picos(5);
    sea::ReportSection &section =
        report.section(sea::Capability::preemptible);
    section.addCost("slice", Duration::picos(6));
    section.addCount("yields", 2);
    section.addEvidence("pcr17", asciiBytes("ev"));
    report.submittedAt = TimePoint(Duration::picos(10));
    report.startedAt = TimePoint(Duration::picos(11));
    report.finishedAt = TimePoint(Duration::picos(12));
    report.queueWait = Duration::picos(1);
    report.total = Duration::picos(1);
    report.launches = 1;
    report.yields = 2;
    report.cpu = 3;
    report.shard = 4;
    report.deadlineMet = true;
    EXPECT_EQ(toHex(report.encode()),
              "00000004455852320000000000000007000000046563686f00000003"
              "72656301000000036f7574000000046d656173010000001c00000004"
              "51554f54000000010000001100000003706372000000016e00000003"
              "73696700000000000000010000000000000002000000000000000300"
              "00000000000004000000000000000500000001000000020000000100"
              "000005736c696365000000000000000600000001000000067969656c"
              "64730000000000000002000000010000000570637231370000000265"
              "76000000000000000a000000000000000b000000000000000c000000"
              "00000000010000000000000001000000000000000100000000000000"
              "02000000030000000401");

    // The error branch adds the code and message after the status byte.
    sea::ExecutionReport failed;
    failed.palName = "echo";
    failed.status = Error(Errc::resourceExhausted, "big");
    EXPECT_EQ(toHex(failed.encode()),
              "00000004455852320000000000000000000000046563686f00000000"
              "00040000000362696700000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000001");
}

TEST(GoldenBundle, MigrationBundleEncodeEmitsThePinnedBytes)
{
    store::MigrationBundle bundle;
    bundle.sourceEpoch = 3;
    bundle.sealedState = asciiBytes("sealed");
    const Bytes wire = bundle.encode();
    EXPECT_EQ(toHex(wire), "4d4d423100010000000000000003000000067365616c6564");
    auto back = store::MigrationBundle::decode(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->sourceEpoch, 3u);
    EXPECT_EQ(back->sealedState, asciiBytes("sealed"));
}

TEST(GoldenSnapshot, SnapshotContainerEncodeEmitsThePinnedBytes)
{
    tpm::SealedBlob blob;
    blob.sePcrBound = false;
    blob.encryptedInnerKey = asciiBytes("key");
    blob.policy = {{17, asciiBytes("pcr17")}};
    blob.ciphertext = asciiBytes("ct");
    blob.mac = asciiBytes("mac");
    const Bytes wire =
        store::EpochContainer{5, blob.encode()}.encode(store::snapshotFormat);
    EXPECT_EQ(toHex(wire),
              "4d535331000100000000000000050000002a5345414c00000000036b"
              "65790000000100000011000000057063723137000000026374000000"
              "036d6163fff80293");
    auto back = store::EpochContainer::decode(store::snapshotFormat, wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->epoch, 5u);
    EXPECT_EQ(back->body, blob.encode());
}

TEST(GoldenSnapshot, NvSlotEncodeEmitsThePinnedBytes)
{
    // TNV1 v1, one counter at 3, no NV spaces.
    const Bytes image = fromHex("544e5631000100000001"
                                "0000000000000003"
                                "00000000")
                            .value();
    const Bytes wire =
        store::EpochContainer{9, image}.encode(store::nvSlotFormat);
    EXPECT_EQ(toHex(wire),
              "4d4e56310001000000000000000900000016544e5631000100000001"
              "000000000000000300000000a85bda80");
    auto back = store::EpochContainer::decode(store::nvSlotFormat, wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->epoch, 9u);
    EXPECT_EQ(back->body, image);
    // The snapshot codec refuses a slot by its magic.
    auto other = store::EpochContainer::decode(store::snapshotFormat, wire);
    ASSERT_FALSE(other.ok());
    EXPECT_EQ(other.error().message, "corrupt snapshot: bad magic");
}

} // namespace
} // namespace mintcb::net
