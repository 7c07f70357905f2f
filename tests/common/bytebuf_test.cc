/**
 * @file
 * Unit tests for big-endian serialization.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytebuf.hh"

namespace mintcb
{
namespace
{

TEST(ByteWriter, BigEndianLayout)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    const Bytes expected = {0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, U64Layout)
{
    ByteWriter w;
    w.u64(0x0102030405060708ull);
    const Bytes expected = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, AppendsToACallerBuffer)
{
    Bytes buf = {0xff};
    ByteWriter w(buf);
    w.u16(0x0102);
    w.str("a");
    const Bytes expected = {0xff, 0x01, 0x02, 0, 0, 0, 1, 'a'};
    EXPECT_EQ(buf, expected);
    EXPECT_EQ(&w.bytes(), &buf);
}

TEST(RecordHeader, StoresAndLoadsBigEndian)
{
    std::uint8_t raw[RecordHeader::bytes] = {};
    RecordHeader{0x4d475731, 0x0102, 0x0304, 0x05060708}.store(raw);
    const std::uint8_t expected[RecordHeader::bytes] = {
        0x4d, 0x47, 0x57, 0x31, 1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(std::memcmp(raw, expected, sizeof raw), 0);
    const RecordHeader h = RecordHeader::load(raw);
    EXPECT_EQ(h.magic, 0x4d475731u);
    EXPECT_EQ(h.version, 0x0102);
    EXPECT_EQ(h.type, 0x0304);
    EXPECT_EQ(h.length, 0x05060708u);
    EXPECT_EQ(loadBe32(raw + RecordHeader::lengthOffset), 0x05060708u);
    storeBe32(raw, 0xa1b2c3d4);
    EXPECT_EQ(loadBe32(raw), 0xa1b2c3d4u);
}

TEST(RoundTrip, AllFieldTypes)
{
    ByteWriter w;
    w.u8(7);
    w.u16(777);
    w.u32(70707);
    w.u64(7070707070ull);
    w.lengthPrefixed({0xde, 0xad});
    w.str("pal");

    ByteReader r(w.bytes());
    EXPECT_EQ(*r.u8(), 7);
    EXPECT_EQ(*r.u16(), 777);
    EXPECT_EQ(*r.u32(), 70707u);
    EXPECT_EQ(*r.u64(), 7070707070ull);
    EXPECT_EQ(*r.lengthPrefixed(), (Bytes{0xde, 0xad}));
    EXPECT_EQ(*r.str(), "pal");
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, TruncationIsAnIntegrityFailure)
{
    const Bytes short_buf = {0x01};
    ByteReader r(short_buf);
    auto v = r.u32();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().code, Errc::integrityFailure);
}

TEST(ByteReader, LengthPrefixLongerThanBuffer)
{
    ByteWriter w;
    w.u32(1000); // claims 1000 bytes follow
    w.u8(0x55);
    ByteReader r(w.bytes());
    auto v = r.lengthPrefixed();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().code, Errc::integrityFailure);
}

TEST(ByteReader, RemainingTracksConsumption)
{
    ByteWriter w;
    w.u32(5);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.remaining(), 4u);
    ASSERT_TRUE(r.u16().ok());
    EXPECT_EQ(r.remaining(), 2u);
    EXPECT_FALSE(r.atEnd());
}

TEST(ByteReader, EmptyRawReadSucceeds)
{
    const Bytes empty;
    ByteReader r(empty);
    auto v = r.raw(0);
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v->empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, FirstFailureLatchesAndConsumesNothing)
{
    ByteWriter w;
    w.u32(9); // claims 9 bytes follow; 2 do
    w.u16(0xaabb);
    ByteReader r(w.bytes());
    EXPECT_TRUE(r.getLengthPrefixed().empty());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 6u);
    // Bytes remain, but every later read is a zero value.
    EXPECT_EQ(r.getU8(), 0);
    EXPECT_EQ(r.getStr(), "");
    EXPECT_EQ(r.error().message, "truncated blob while reading raw bytes");
    // The latched error outranks the trailing bytes.
    const Status s = r.finish(Errc::invalidArgument, "trailing");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::integrityFailure);
    EXPECT_EQ(s.error().message, r.error().message);
}

TEST(ByteReader, FinishReportsTrailingBytesWithTheCallersError)
{
    const Bytes src = {0x01, 0x02};
    ByteReader r(src);
    EXPECT_EQ(r.getU8(), 1);
    const Status s = r.finish(Errc::invalidArgument, "trailing bytes");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::invalidArgument);
    EXPECT_EQ(s.error().message, "trailing bytes");
    EXPECT_EQ(r.getU8(), 2);
    EXPECT_TRUE(r.finish(Errc::invalidArgument, "trailing bytes").ok());
}

} // namespace
} // namespace mintcb
