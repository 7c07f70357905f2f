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

bool
ByteReader::have(std::size_t n, const char *what)
{
    if (!ok())
        return false;
    if (remaining() < n) {
        error_ = Error(Errc::integrityFailure,
                       std::string("truncated blob while reading ") + what);
        return false;
    }
    return true;
}

template <typename Out>
Out
ByteReader::take(std::size_t n)
{
    if (!have(n, "raw bytes"))
        return Out();
    const auto at = src_.begin() + static_cast<std::ptrdiff_t>(pos_);
    pos_ += n;
    return Out(at, at + static_cast<std::ptrdiff_t>(n));
}

template <typename Out>
Out
ByteReader::takePrefixed()
{
    const std::size_t start = pos_;
    const std::uint32_t n = getU32();
    Out out = take<Out>(n);
    if (!ok())
        pos_ = start; // a failed read consumes nothing
    return out;
}

std::uint8_t
ByteReader::getU8()
{
    if (!have(1, "u8"))
        return 0;
    return src_[pos_++];
}

std::uint16_t
ByteReader::getU16()
{
    if (!have(2, "u16"))
        return 0;
    const std::uint16_t v =
        static_cast<std::uint16_t>(src_[pos_] << 8 | src_[pos_ + 1]);
    pos_ += 2;
    return v;
}

std::uint32_t
ByteReader::getU32()
{
    if (!have(4, "u32"))
        return 0;
    const std::uint32_t v = loadBe32(src_.data() + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::getU64()
{
    if (!have(8, "u64"))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | src_[pos_ + i];
    pos_ += 8;
    return v;
}

Bytes
ByteReader::getRaw(std::size_t n)
{
    return take<Bytes>(n);
}

Bytes
ByteReader::getLengthPrefixed()
{
    return takePrefixed<Bytes>();
}

std::string
ByteReader::getStr()
{
    return takePrefixed<std::string>();
}

Status
ByteReader::finish(Errc trailing, const char *message) const
{
    if (!ok())
        return error_;
    if (!atEnd())
        return Error(trailing, message);
    return okStatus();
}

} // namespace mintcb
