/**
 * @file
 * Big-endian byte serialization helpers.
 *
 * TPM structures (sealed blobs, quote payloads, PCR composites) are packed
 * big-endian on the wire, as in the TCG v1.2 specification, and so is
 * every other format in the tree. This is the one codec vocabulary they
 * all share:
 *
 *  - ByteWriter appends fields, either to a buffer it owns (take() it
 *    when done) or to a caller's buffer (zero-copy encode paths reuse
 *    one buffer across many frames);
 *  - ByteReader extracts them behind a sticky error, so a decoder is
 *    straight-line reads plus one finish();
 *  - RecordHeader is the fixed 12-byte header the MGW1 wire frames
 *    (net/wire.hh) and MWL1 log records (store/wal.hh) both start with,
 *    stored and loaded by exactly one function each.
 */

#ifndef MINTCB_COMMON_BYTEBUF_HH
#define MINTCB_COMMON_BYTEBUF_HH

#include <cassert>
#include <cstdint>
#include <string>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb
{

/**
 * Appends big-endian encoded fields to a byte vector: its own by
 * default, or the caller's (`ByteWriter w(buf)`) so steady-state
 * encoding into a reused buffer performs no per-frame heap allocation.
 * Non-copyable: a writer is a cursor on one buffer, not a value.
 */
class ByteWriter
{
  public:
    ByteWriter() : out_(own_) {}
    explicit ByteWriter(Bytes &out) : out_(out) {}

    ByteWriter(const ByteWriter &) = delete;
    ByteWriter &operator=(const ByteWriter &) = delete;

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);

    /** Append raw bytes verbatim. */
    void raw(const Bytes &b) { out_.insert(out_.end(), b.begin(), b.end()); }

    /** Append a u32 length prefix followed by the bytes. */
    void lengthPrefixed(const Bytes &b);

    /** Append a u32 length prefix followed by the UTF-8 string bytes. */
    void str(const std::string &s);

    /** The buffer written to (including any bytes it held before). */
    const Bytes &bytes() const { return out_; }
    /** Move the buffer's contents out. */
    Bytes take() { return std::move(out_); }
    std::size_t size() const { return out_.size(); }

  private:
    Bytes own_; //!< unused when writing to a caller's buffer
    Bytes &out_;
};

/** @name Fixed-offset big-endian words (no bounds checks: callers have
 *  already established that the bytes exist). @{ */
std::uint32_t loadBe32(const std::uint8_t *at);
void storeBe32(std::uint8_t *at, std::uint32_t v);
/** @} */

/**
 * The 12-byte header shared by MGW1 frames and MWL1 log records:
 *
 *     u32 magic | u16 version | u16 type | u32 length
 *
 * Only the layout is shared. What counts as a valid magic, version,
 * type or length -- and how a bad one is reported -- stays with each
 * format.
 */
struct RecordHeader
{
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t type = 0;
    std::uint32_t length = 0; //!< payload bytes that follow the header

    static constexpr std::size_t bytes = 12;
    /** Offset of the length field (patched after a payload is written
     *  in place). */
    static constexpr std::size_t lengthOffset = 8;

    /** Write the header into the 12 bytes at @p at. */
    void store(std::uint8_t *at) const;
    /** Parse the 12 bytes at @p at. */
    static RecordHeader load(const std::uint8_t *at);
};

/**
 * Decodes big-endian fields from a byte span with a sticky error, the
 * way std::istream's failbit works:
 *
 *  - a read past the end consumes nothing, returns a zero value (0,
 *    empty Bytes, empty string) and latches integrityFailure
 *    "truncated blob while reading <what>";
 *  - once an error is latched, every later read returns a zero value
 *    too, so the first error is the one reported;
 *  - finish() ends a decode: the latched error, else the caller's
 *    trailing-bytes error, else ok.
 *
 * A decoder therefore reads straight into its struct, mirroring its
 * encoder line for line, and checks once at the end. What stays with
 * each decoder (DESIGN.md section 11.1):
 *
 *  - a loop whose bound comes from the input tests ok() on every
 *    iteration and before any side effect (push_back, emplace,
 *    executing a parsed command), so a huge claimed count over a short
 *    body stops at the first failed read;
 *  - a semantic check on a read value (magic, version, enum range, a
 *    count cap) runs only while ok(), so a truncated field still
 *    reports the truncation, as it did when every read returned early.
 *
 * getRaw(n) and the length-prefixed reads check n against remaining()
 * before allocating anything.
 *
 * The Result getters (u8() ... str()) are one-line adapters over the
 * same core for callers that stop at the first failed field.
 */
class ByteReader
{
  public:
    explicit ByteReader(const Bytes &src) : src_(src) {}

    /** @name Sticky reads: a zero value once anything failed. @{ */
    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    /** Exactly @p n raw bytes. */
    Bytes getRaw(std::size_t n);
    /** A u32 length prefix, then that many bytes. */
    Bytes getLengthPrefixed();
    /** A u32 length prefix, then that many bytes as a string. */
    std::string getStr();
    /** @} */

    /** True while no read has failed. */
    bool ok() const { return error_.code == Errc::ok; }

    /** The first failed read's error (check ok() first). */
    const Error &
    error() const
    {
        assert(!ok() && "ByteReader::error() while ok");
        return error_;
    }

    /** End of a decode: the latched error; else, if bytes remain,
     *  Error(@p trailing, @p message); else ok. */
    Status finish(Errc trailing, const char *message) const;

    /** finish(), handing @p value back when it is ok. */
    template <typename T>
    Result<T>
    finish(T value, Errc trailing, const char *message) const
    {
        if (Status s = finish(trailing, message); !s.ok())
            return s.error();
        return value;
    }

    /** @name Result adapters over the sticky reads. @{ */
    Result<std::uint8_t> u8() { return checked(getU8()); }
    Result<std::uint16_t> u16() { return checked(getU16()); }
    Result<std::uint32_t> u32() { return checked(getU32()); }
    Result<std::uint64_t> u64() { return checked(getU64()); }
    Result<Bytes> raw(std::size_t n) { return checked(getRaw(n)); }
    Result<Bytes> lengthPrefixed() { return checked(getLengthPrefixed()); }
    Result<std::string> str() { return checked(getStr()); }
    /** @} */

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return src_.size() - pos_; }

    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == src_.size(); }

  private:
    /** True when @p n more bytes can be read; otherwise latches the
     *  truncation error (unless one is latched already). */
    bool have(std::size_t n, const char *what);

    /** The next @p n bytes as an @p Out (Bytes or std::string). */
    template <typename Out> Out take(std::size_t n);
    /** A u32 length prefix, then take<Out>() of that many bytes. */
    template <typename Out> Out takePrefixed();

    template <typename T>
    Result<T>
    checked(T value) const
    {
        if (!ok())
            return error_;
        return value;
    }

    const Bytes &src_;
    std::size_t pos_ = 0;
    Error error_; //!< Errc::ok until the first failed read
};

} // namespace mintcb

#endif // MINTCB_COMMON_BYTEBUF_HH
