/**
 * @file
 * Decode oracle: the exact outcome of every public decoder over a
 * fixed family of hostile inputs, pinned as one SHA-256 per decoder.
 *
 * Each decoder gets one valid encoding of fixed values, then:
 *
 *  - every strict prefix (truncation at every offset);
 *  - every single byte XOR 0xff;
 *  - the valid encoding plus one appended byte;
 *  - for each loop whose bound comes from the input, the encoding cut
 *    just after that count field, with the count set to 0xFFFFFFFF.
 *
 * One line per input records "ok" or "<errcName>: <message>" (scanWal,
 * which is total, records "ok" or its torn reason, plus how far it
 * got). The digest over those
 * lines pins which inputs are refused, with which category and which
 * text, and so which error comes *first* -- the property a decoder
 * rewrite must keep. On a mismatch the lines are printed.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/kvstore_pal.hh"
#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/rsa.hh"
#include "crypto/sha256.hh"
#include "net/wire.hh"
#include "sea/attestation.hh"
#include "sea/request.hh"
#include "store/engine.hh"
#include "store/migrate.hh"
#include "store/wal.hh"
#include "tpm/blob.hh"
#include "tpm/eventlog.hh"
#include "tpm/tpm.hh"
#include "tpm/transport.hh"
#include "verify/trace.hh"
#include "../store/storetest.hh"

namespace mintcb
{
namespace
{

/** A count field: where it sits in the valid encoding and the value
 *  it holds there (checked, so a wrong offset fails loudly). */
struct CountField
{
    std::size_t offset;
    std::uint32_t value;
};

/** One decoder under the oracle. */
struct Oracle
{
    const char *name;
    Bytes valid;
    std::vector<CountField> counts;
    /** Decode one input; returns the line recorded for it. */
    std::function<std::string(const Bytes &)> run;
    const char *digest;
};

std::string
outcome(const Status &s)
{
    return s.ok() ? "ok" : s.error().str();
}

template <typename T>
std::string
outcome(const Result<T> &r)
{
    return r.ok() ? "ok" : r.error().str();
}

/** Adapt a Result-returning decoder to an oracle runner. */
template <typename F>
std::function<std::string(const Bytes &)>
decoder(F f)
{
    return [f](const Bytes &in) { return outcome(f(in)); };
}

/** The labelled input family for @p o. */
std::vector<std::pair<std::string, Bytes>>
inputs(const Oracle &o)
{
    std::vector<std::pair<std::string, Bytes>> out;
    out.emplace_back("valid", o.valid);
    for (std::size_t n = 0; n < o.valid.size(); ++n) {
        out.emplace_back("prefix " + std::to_string(n),
                         Bytes(o.valid.begin(),
                               o.valid.begin() +
                                   static_cast<std::ptrdiff_t>(n)));
    }
    for (std::size_t i = 0; i < o.valid.size(); ++i) {
        Bytes flipped = o.valid;
        flipped[i] ^= 0xff;
        out.emplace_back("flip " + std::to_string(i), flipped);
    }
    Bytes appended = o.valid;
    appended.push_back(0x00);
    out.emplace_back("append", appended);
    for (const CountField &c : o.counts) {
        Bytes huge(o.valid.begin(),
                   o.valid.begin() + static_cast<std::ptrdiff_t>(c.offset));
        ByteWriter w(huge);
        w.u32(0xffffffffu);
        out.emplace_back("count@" + std::to_string(c.offset), huge);
    }
    return out;
}

/** The fixed values the frame decoders see (golden_frames_test.cc). */
std::vector<Oracle>
frameOracles()
{
    using namespace net;
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
        {"decodeHello", encode(hello), {}, decoder(decodeHello),
         "73722c4d84dae09d8adf6c33c7f6a67286455f395882c02ec8922352dbcfc799"},
        {"decodeChallenge", encode(challenge), {}, decoder(decodeChallenge),
         "db87da715cb9969cb3820b93d15b33e31bdf501bb49522fde837961fc58661df"},
        {"decodeAuth", encode(auth), {}, decoder(decodeAuth),
         "ad1ac471ccb59cede11fe5b9a0b7b2a7c809307a049fdf546e5ec4a231c1e770"},
        {"decodeAuthOk", encode(ok), {}, decoder(decodeAuthOk),
         "16c74dbce95f90eb1c5b2e39ebcb5db855724c0f4d9b9c7127b5b0f92303b207"},
        {"decodeSubmit", encode(submit), {}, decoder(decodeSubmit),
         "3f5377e2c04b26b2335d1d361892047c6c65dce34870c34cb13df1d4269426cf"},
        {"decodeReport", encode(report), {}, decoder(decodeReport),
         "2848d5d1f7ea68ca7465f6e44500c948e758d5040c54fb191e38ece7a54a7ae4"},
        {"decodeBusy", encode(busy), {}, decoder(decodeBusy),
         "679d3c9d9e7fd7376f8332d09856281adf68d81bfc16049671300e95ed3e0375"},
        {"decodeError", encode(error), {}, decoder(decodeError),
         "c31d88fa42580b478475681cef3f659c7a2b791cb9d68504c4e9e05895a45605"},
        {"decodeMigrateBegin", encode(begin), {},
         decoder(decodeMigrateBegin),
         "127ab36d303f79c2257b8de23ebb187853a145bd673ab52c81b6fc79cbcafb6f"},
        {"decodeMigrateChallenge", encode(mchallenge), {},
         decoder(decodeMigrateChallenge),
         "94463d149d7ef918549da806f4551ac0b855a8771af116fd59a2b5c7f2f7b698"},
        {"decodeMigrate", encode(migrate), {}, decoder(decodeMigrate),
         "513174fe143ec9be97fb7942811738d8851d1cf73db476266673f69b8912775a"},
        {"decodeMigrated", encode(migrated), {}, decoder(decodeMigrated),
         "16236955dc697d88f1c3081934538c4d465ab95cdcf5d86af973f2769c9bd23d"},
        // The resumption payloads also get a 0xFFFFFFFF length at
        // every length prefix.
        {"decodeTicket", encode(ticket), {{0, 3}, {7, 3}},
         decoder(decodeTicket),
         "0be09fe66a3330900d987b539a629246dde5d4b53e0cd8980f774418c77ccff4"},
        {"decodeResume", encode(resume), {{0, 3}, {15, 2}, {21, 2}},
         decoder(decodeResume),
         "272d25a37d4a55d0b2de2f118f6a2f7080d1012c65a50e02fe6fed74ad8bbbfa"},
        {"decodeResumed", encode(resumed), {{8, 2}}, decoder(decodeResumed),
         "273960623e3245e14165be051a8d518e2fec7812b4c461cb6fb013a996493c43"},
    };
}

/** The EXR2 report of golden_frames_test.cc's GoldenReport pin. */
Bytes
goldenReport()
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
    return report.encode();
}

/** The four MWL1 records of golden_frames_test.cc, back to back. */
Bytes
goldenWalImage()
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
    Bytes image;
    store::appendRecord(image, store::RecordType::keyBlob,
                        asciiBytes("sealed-key-blob"));
    store::appendRecord(image, store::RecordType::put,
                        store::encodeMutation(logKey, put));
    store::appendRecord(image, store::RecordType::remove,
                        store::encodeMutation(logKey, remove));
    store::appendRecord(image, store::RecordType::commit,
                        store::encodeCommit(logKey, {1, 2}));
    return image;
}

std::vector<Oracle>
storeOracles()
{
    const Bytes logKey(32, 0x42);
    store::Mutation put;
    put.seq = 1;
    put.key = "k";
    put.value = asciiBytes("v");
    store::MigrationBundle bundle;
    bundle.sourceEpoch = 3;
    bundle.sealedState = asciiBytes("sealed");
    return {
        {"summarizeReport", goldenReport(),
         {{127, 1}, {135, 1}, {156, 1}, {178, 1}},
         decoder(net::summarizeReport),
         "d95872ca5c081c65e7dee6409c290be0482a0ce1af315e59c7e06997dea55032"},
        {"scanWal", goldenWalImage(), {},
         [](const Bytes &in) {
             const store::WalScan scan = store::scanWal(in);
             return std::string(scan.torn ? "torn: " + scan.tornReason
                                          : "ok") +
                    " (records=" + std::to_string(scan.records.size()) +
                    " valid=" + std::to_string(scan.validBytes) + ")";
         },
         "f376a215c620e9fc3a1342c03c6bb7699d9e36ba87a50f474300cea937bb7ecf"},
        {"decodeMutation", store::encodeMutation(logKey, put), {},
         [logKey](const Bytes &in) {
             return outcome(store::decodeMutation(logKey, in, false));
         },
         "7dcd356a376ee1a86e68f3627c5e17715a79db910e86aff54ca1ad2fd81bcdc2"},
        {"decodeCommit", store::encodeCommit(logKey, {1, 2}), {},
         [logKey](const Bytes &in) {
             return outcome(store::decodeCommit(logKey, in));
         },
         "165e0f6243b5ecc3318aa909d00b294d1e9318373ba6343399f134997b32ef87"},
        {"MigrationBundle::decode", bundle.encode(), {},
         decoder(store::MigrationBundle::decode),
         "8dc00bde426da084d0593a8f0a9c433661dcb3a8f6c901ac71ed6cf9a4d90777"},
    };
}

std::vector<Oracle>
tpmOracles()
{
    tpm::SealedBlob blob;
    blob.sePcrBound = true;
    blob.encryptedInnerKey = asciiBytes("inner-key");
    blob.policy = {{17, Bytes(20, 0xaa)}, {18, Bytes(20, 0xbb)}};
    blob.ciphertext = asciiBytes("ct-bytes");
    blob.mac = Bytes(32, 0xcc);

    tpm::Tpm source(tpm::TpmVendor::ideal);
    EXPECT_TRUE(source.counterCreate().ok());
    EXPECT_TRUE(source.counterCreate().ok());
    EXPECT_TRUE(source.counterIncrement(0).ok());
    EXPECT_TRUE(source.counterIncrement(1).ok());
    EXPECT_TRUE(source.counterIncrement(1).ok());
    EXPECT_TRUE(source.nvDefine(8, {}).ok());
    EXPECT_TRUE(source.nvDefine(4, {17}).ok());
    EXPECT_TRUE(source.nvWrite(0, asciiBytes("abc")).ok());

    tpm::EventLog log;
    log.append({4, "grub", Bytes(20, 0x11)});
    log.append({8, "vmlinuz", Bytes(20, 0x22)});

    tpm::WrappedMessage wrapped;
    wrapped.ciphertext = asciiBytes("ciphertext");
    wrapped.mac = Bytes(32, 0x5a);

    // The batch body a client tunnels: count | count x (op, pcr, payload).
    ByteWriter batch;
    batch.u32(2);
    batch.u8(static_cast<std::uint8_t>(tpm::TransportOp::pcrRead));
    batch.u32(0);
    batch.lengthPrefixed({});
    batch.u8(static_cast<std::uint8_t>(tpm::TransportOp::pcrExtend));
    batch.u32(1);
    batch.lengthPrefixed(Bytes(20, 0x33));

    // One server/client pair shared across every batch input: each
    // exchange is a well-formed wrapped message, so the counters stay
    // in step whatever the batch body does.
    struct Session
    {
        tpm::Tpm chip{tpm::TpmVendor::ideal};
        tpm::TpmTransportServer server{chip};
        std::optional<tpm::TransportClient> client;
    };
    auto session = std::make_shared<Session>();
    Rng rng(77);
    auto opened = tpm::TransportClient::open(session->chip.srkPublic(), rng);
    EXPECT_TRUE(opened.ok());
    session->client.emplace(std::move(opened->client));
    EXPECT_TRUE(session->server.accept(opened->envelope).ok());

    return {
        {"SealedBlob::decode", blob.encode(), {{18, 2}},
         decoder(tpm::SealedBlob::decode),
         "de5b5efd36e4575163542e377b4df5320c52821a56f3a1bf648157db47f6fb5e"},
        {"Tpm::importNvState", source.exportNvState(),
         {{6, 2}, {26, 2}, {38, 0}, {57, 1}},
         [](const Bytes &in) {
             tpm::Tpm fresh(tpm::TpmVendor::ideal);
             return outcome(fresh.importNvState(in));
         },
         "d23baf2b2e1ddc8a8d4b7a338cacd1103443979a957c19702f2f3f91204b961a"},
        {"EventLog::decode", log.encode(), {{0, 2}},
         decoder(tpm::EventLog::decode),
         "7e0e0f5db89e2277b4a25de4e1cbdabf04ca61a3db484a6129f943480fe8b80e"},
        {"WrappedMessage::decode", wrapped.encode(), {},
         decoder(tpm::WrappedMessage::decode),
         "c41032166bcc98b4546da085621ce9a00dc0d61aeb29ef7e856166624d51f48c"},
        {"TpmTransportServer::execute(batch)", batch.take(), {{0, 2}},
         [session](const Bytes &in) {
             return outcome(session->server.execute(
                 session->client->wrapCommand(tpm::TransportOp::batch, 0,
                                              in)));
         },
         "13b55a6850f0825af1135a6a8c2410efd4b611860f2062f2983ea9fc3844f1a1"},
    };
}

std::vector<Oracle>
otherOracles()
{
    sea::Attestation att;
    att.quote.selection = {17, 18};
    att.quote.values = {Bytes(20, 0x17), Bytes(20, 0x18)};
    att.quote.nonce = asciiBytes("nonce");
    att.quote.signature = asciiBytes("quote-sig");
    att.aikCert.aikPublic = asciiBytes("aik");
    att.aikCert.subject = "platform";
    att.aikCert.signature = asciiBytes("ca-sig");

    crypto::RsaPrivateKey key;
    key.pub.n = crypto::BigNum(3233);
    key.pub.e = crypto::BigNum(17);
    key.d = crypto::BigNum(2753);
    key.p = crypto::BigNum(61);
    key.q = crypto::BigNum(53);
    key.dP = crypto::BigNum(53);
    key.dQ = crypto::BigNum(49);
    key.qInv = crypto::BigNum(38);

    verify::ExecutionTrace trace;
    verify::TraceEvent launch;
    launch.kind = verify::TraceEventKind::slaunch;
    launch.subject = "pal";
    launch.arg = 1;
    launch.at = TimePoint(Duration::picos(5));
    launch.requestId = 7;
    trace.append(launch);
    trace.append(verify::TraceEventKind::drainEnd, 2, "drain", 3,
                 TimePoint(Duration::picos(9)));

    return {
        {"Attestation::decode", att.encode(), {{10, 2}},
         decoder(sea::Attestation::decode),
         "984af8499ad544b360101937d0743a0b2a5e404def852412e282e12c8542cedd"},
        {"RsaPublicKey::decode", key.pub.encode(), {},
         decoder(crypto::RsaPublicKey::decode),
         "1aaa7e2d20734fe24160f6fcd35f6616adc7962f3fd3cc2fbcdbbbed1b3ae5ee"},
        {"RsaPrivateKey::decode", key.encode(), {},
         decoder(crypto::RsaPrivateKey::decode),
         "b3ff3ed5cfccc1d8aca3186557d2d7ca08121a8c23b5bf7fa4a8d86592601619"},
        {"ExecutionTrace::decode", trace.encode(), {{4, 2}},
         decoder(verify::ExecutionTrace::decode),
         "2565a29878bb5d356159a8c61fcf6b0d08bda7d6e8024493bdd13912069837fd"},
        {"decodeKvImage",
         apps::encodeKvImage(7, {{"a", asciiBytes("1")},
                                 {"bb", asciiBytes("22")}}),
         {{8, 2}}, decoder(apps::decodeKvImage),
         "e01c6d51e1887ac404352e6083d47d72b7b658c86cbfb0b125350fedba1c3ac3"},
    };
}

/** A one-key store checkpointed to a snapshot, reopened per input. */
struct SnapshotFixture
{
    storetest::TempDir tmp;
    store::StoreConfig cfg;
    std::string snapPath;
    Bytes snapshot;

    SnapshotFixture()
    {
        cfg = storetest::configFor(tmp);
        cfg.snapshotEvery = 0;
        auto s = store::SealedStore::open(cfg);
        EXPECT_TRUE(s.ok());
        EXPECT_TRUE((*s)->put("k", asciiBytes("v")).ok());
        EXPECT_TRUE((*s)->commit().ok());
        EXPECT_TRUE((*s)->checkpoint().ok());
        snapPath = (*s)->snapshotPath();
        snapshot = storetest::slurp(snapPath);
    }

    std::string
    openWith(const Bytes &file) const
    {
        storetest::spew(snapPath, file);
        return outcome(store::SealedStore::open(cfg));
    }
};

/** A migration target that adopts raw snapshot payloads; a fresh
 *  (empty) target replaces it after every accepted payload. */
struct AdoptFixture
{
    std::unique_ptr<storetest::TempDir> tmp;
    std::unique_ptr<store::SealedStore> target;

    std::string
    adopt(const Bytes &payload)
    {
        if (!target) {
            tmp = std::make_unique<storetest::TempDir>();
            auto s = store::SealedStore::open(storetest::configFor(*tmp));
            EXPECT_TRUE(s.ok());
            target = s.take();
        }
        const Status s = target->adoptMigrated(payload);
        if (s.ok()) {
            target.reset();
            tmp.reset();
        }
        return outcome(s);
    }
};

std::vector<Oracle>
snapshotOracles(const std::shared_ptr<SnapshotFixture> &snap)
{
    const Bytes &file = snap->snapshot;
    const Bytes body(file.begin(),
                     file.end() - static_cast<std::ptrdiff_t>(
                                      store::walCrcBytes));
    // The payload sealed inside a snapshot (and a migration bundle):
    // u64 epoch | u32 count | count x (str key, lengthPrefixed value).
    ByteWriter payload;
    payload.u64(5);
    payload.u32(2);
    payload.str("a");
    payload.lengthPrefixed(asciiBytes("1"));
    payload.str("bb");
    payload.lengthPrefixed(asciiBytes("22"));
    auto adopt = std::make_shared<AdoptFixture>();
    return {
        {"snapshot file", file, {},
         [snap](const Bytes &in) { return snap->openWith(in); },
         "0cee91d36531b7d2caea99b785e6682be12bc2e8812a301225e383637fef801b"},
        // The same container with its CRC recomputed over each input,
        // so every variant reaches the container parse.
        {"snapshot container", body, {},
         [snap](const Bytes &in) {
             Bytes sealed = in;
             ByteWriter w(sealed);
             w.u32(store::crc32(in, 0, in.size()));
             return snap->openWith(sealed);
         },
         "69c0af2307925c428ac566d8c412013bc624e104d5656a22f33d9210d6d561c2"},
        {"snapshot payload", payload.take(), {{8, 2}},
         [adopt](const Bytes &in) { return adopt->adopt(in); },
         "18ff5fbff4e74412cc14537468fc25ee95e2b97639b73c344e9583b06a8acbe6"},
    };
}

/** Run @p o over its input family; returns the recorded lines. */
std::vector<std::string>
record(const Oracle &o)
{
    for (const CountField &c : o.counts) {
        EXPECT_LE(c.offset + 4, o.valid.size()) << o.name;
        if (c.offset + 4 <= o.valid.size()) {
            EXPECT_EQ(loadBe32(o.valid.data() + c.offset), c.value)
                << o.name << " count@" << c.offset;
        }
    }
    std::vector<std::string> lines;
    for (const auto &[label, in] : inputs(o))
        lines.push_back(label + ": " + o.run(in));
    return lines;
}

void
check(const Oracle &o)
{
    const std::vector<std::string> lines = record(o);
    EXPECT_EQ(lines.front().rfind("valid: ok", 0), 0u)
        << o.name << ": " << lines.front();
    std::string joined;
    for (const std::string &l : lines)
        joined += l + "\n";
    const std::string digest =
        toHex(crypto::Sha256::digestBytes(asciiBytes(joined)));
    EXPECT_EQ(digest, o.digest) << o.name << " outcomes:\n" << joined;
}

TEST(DecodeOracle, FrameDecoders)
{
    for (const Oracle &o : frameOracles())
        check(o);
}

TEST(DecodeOracle, ReportAndStoreDecoders)
{
    for (const Oracle &o : storeOracles())
        check(o);
}

TEST(DecodeOracle, TpmDecoders)
{
    for (const Oracle &o : tpmOracles())
        check(o);
}

TEST(DecodeOracle, AttestationKeyTraceAndKvDecoders)
{
    for (const Oracle &o : otherOracles())
        check(o);
}

TEST(DecodeOracle, SnapshotLoadPath)
{
    const auto snap = std::make_shared<SnapshotFixture>();
    ASSERT_FALSE(snap->snapshot.empty());
    for (const Oracle &o : snapshotOracles(snap))
        check(o);
}

} // namespace
} // namespace mintcb
