/**
 * @file
 * Event-log tests (Section 2.1.1 stored measurement log semantics).
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/sha1.hh"
#include "tpm/eventlog.hh"
#include "tpm/pcr.hh"

namespace mintcb::tpm
{
namespace
{

MeasuredEvent
event(std::uint32_t pcr, const std::string &name, const std::string &body)
{
    return {pcr, name, crypto::Sha1::digestBytes(asciiBytes(body))};
}

TEST(EventLog, ReplayReproducesRealPcrExtends)
{
    // Extending a real PCR bank with the logged measurements must land
    // on exactly the replayed values.
    EventLog log;
    PcrBank bank;
    for (const MeasuredEvent &e :
         {event(0, "bios", "bios-image"), event(4, "grub", "grub-image"),
          event(4, "grub.cfg", "config"), event(8, "kernel", "vmlinuz")}) {
        log.append(e);
        ASSERT_TRUE(bank.extend(e.pcrIndex, e.measurement).ok());
    }
    const auto replayed = log.replay();
    ASSERT_EQ(replayed.size(), 3u);
    EXPECT_EQ(replayed.at(0), *bank.read(0));
    EXPECT_EQ(replayed.at(4), *bank.read(4));
    EXPECT_EQ(replayed.at(8), *bank.read(8));
}

TEST(EventLog, OrderMatters)
{
    EventLog ab, ba;
    ab.append(event(0, "a", "a"));
    ab.append(event(0, "b", "b"));
    ba.append(event(0, "b", "b"));
    ba.append(event(0, "a", "a"));
    EXPECT_NE(ab.replay().at(0), ba.replay().at(0));
}

TEST(EventLog, EmptyLogReplaysToNothing)
{
    EXPECT_TRUE(EventLog().replay().empty());
}

TEST(EventLog, EncodeDecodeRoundTrips)
{
    EventLog log;
    log.append(event(0, "bios", "x"));
    log.append(event(8, "kernel with spaces", "y"));
    auto decoded = EventLog::decode(log.encode());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), 2u);
    EXPECT_EQ(decoded->events()[1].description, "kernel with spaces");
    EXPECT_EQ(decoded->replay(), log.replay());
}

TEST(EventLog, DecodeRejectsGarbage)
{
    EXPECT_FALSE(EventLog::decode(asciiBytes("junk")).ok());
    Bytes truncated = EventLog().encode();
    truncated.push_back(0x00);
    EXPECT_FALSE(EventLog::decode(truncated).ok());
}

TEST(EventLog, DecodeRejectsTrailingBytesInsideAnEntry)
{
    // An entry whose length prefix covers bytes past its measurement
    // must not decode as the same log as the canonical encoding.
    const MeasuredEvent e = event(4, "grub", "stage2");
    Bytes padded = e.encode();
    padded.push_back(0x00);
    ByteWriter w;
    w.u32(1);
    w.lengthPrefixed(padded);
    auto decoded = EventLog::decode(w.bytes());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, Errc::integrityFailure);
    EXPECT_EQ(decoded.error().message, "trailing bytes in event-log entry");
}

TEST(EventLog, TamperedEntryChangesReplay)
{
    // The verifier detects log tampering because replay diverges from
    // the quoted PCR: flipping any measurement bit changes the replay.
    EventLog log;
    log.append(event(0, "bios", "image"));
    const Bytes honest = log.replay().at(0);

    EventLog tampered;
    MeasuredEvent e = event(0, "bios", "image");
    e.measurement[0] ^= 0x01;
    tampered.append(e);
    EXPECT_NE(tampered.replay().at(0), honest);
}

} // namespace
} // namespace mintcb::tpm
