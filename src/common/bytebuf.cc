/**
 * @file
 * Big-endian serialization implementation.
 */

#include "common/bytebuf.hh"

namespace mintcb
{

void
ByteWriter::u16(std::uint16_t v)
{
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
}

void
ByteWriter::u32(std::uint32_t v)
{
    for (int shift = 24; shift >= 0; shift -= 8)
        out_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::u64(std::uint64_t v)
{
    for (int shift = 56; shift >= 0; shift -= 8)
        out_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::lengthPrefixed(const Bytes &b)
{
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
}

std::uint32_t
loadBe32(const std::uint8_t *at)
{
    return static_cast<std::uint32_t>(at[0]) << 24 |
           static_cast<std::uint32_t>(at[1]) << 16 |
           static_cast<std::uint32_t>(at[2]) << 8 |
           static_cast<std::uint32_t>(at[3]);
}

void
storeBe32(std::uint8_t *at, std::uint32_t v)
{
    at[0] = static_cast<std::uint8_t>(v >> 24);
    at[1] = static_cast<std::uint8_t>(v >> 16);
    at[2] = static_cast<std::uint8_t>(v >> 8);
    at[3] = static_cast<std::uint8_t>(v);
}

void
RecordHeader::store(std::uint8_t *at) const
{
    storeBe32(at, magic);
    at[4] = static_cast<std::uint8_t>(version >> 8);
    at[5] = static_cast<std::uint8_t>(version);
    at[6] = static_cast<std::uint8_t>(type >> 8);
    at[7] = static_cast<std::uint8_t>(type);
    storeBe32(at + lengthOffset, length);
}

RecordHeader
RecordHeader::load(const std::uint8_t *at)
{
    RecordHeader h;
    h.magic = loadBe32(at);
    h.version = static_cast<std::uint16_t>(at[4] << 8 | at[5]);
    h.type = static_cast<std::uint16_t>(at[6] << 8 | at[7]);
    h.length = loadBe32(at + lengthOffset);
    return h;
}

Error
ByteReader::truncated(const char *what) const
{
    return Error(Errc::integrityFailure,
                 std::string("truncated blob while reading ") + what);
}

Result<std::uint8_t>
ByteReader::u8()
{
    if (remaining() < 1)
        return truncated("u8");
    return src_[pos_++];
}

Result<std::uint16_t>
ByteReader::u16()
{
    if (remaining() < 2)
        return truncated("u16");
    std::uint16_t v = static_cast<std::uint16_t>(src_[pos_]) << 8 |
                      static_cast<std::uint16_t>(src_[pos_ + 1]);
    pos_ += 2;
    return v;
}

Result<std::uint32_t>
ByteReader::u32()
{
    if (remaining() < 4)
        return truncated("u32");
    const std::uint32_t v = loadBe32(src_.data() + pos_);
    pos_ += 4;
    return v;
}

Result<std::uint64_t>
ByteReader::u64()
{
    if (remaining() < 8)
        return truncated("u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | src_[pos_ + i];
    pos_ += 8;
    return v;
}

Result<Bytes>
ByteReader::raw(std::size_t n)
{
    if (remaining() < n)
        return truncated("raw bytes");
    Bytes out(src_.begin() + pos_, src_.begin() + pos_ + n);
    pos_ += n;
    return out;
}

Result<Bytes>
ByteReader::lengthPrefixed()
{
    auto len = u32();
    if (!len)
        return len.error();
    return raw(*len);
}

Result<std::string>
ByteReader::str()
{
    auto bytes = lengthPrefixed();
    if (!bytes)
        return bytes.error();
    return std::string(bytes->begin(), bytes->end());
}

} // namespace mintcb
