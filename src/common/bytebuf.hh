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
 *  - ByteReader extracts them, returning a Result for every field;
 *  - RecordHeader is the fixed 12-byte header the MGW1 wire frames
 *    (net/wire.hh) and MWL1 log records (store/wal.hh) both start with,
 *    stored and loaded by exactly one function each.
 */

#ifndef MINTCB_COMMON_BYTEBUF_HH
#define MINTCB_COMMON_BYTEBUF_HH

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
 * Decodes big-endian fields from a byte span. All extractors return a
 * Result so that truncated or corrupted blobs surface as integrityFailure
 * instead of undefined behaviour.
 */
class ByteReader
{
  public:
    explicit ByteReader(const Bytes &src) : src_(src) {}

    Result<std::uint8_t> u8();
    Result<std::uint16_t> u16();
    Result<std::uint32_t> u32();
    Result<std::uint64_t> u64();

    /** Read exactly @p n raw bytes. */
    Result<Bytes> raw(std::size_t n);

    /** Read a u32 length prefix, then that many bytes. */
    Result<Bytes> lengthPrefixed();

    /** Read a u32 length prefix, then that many bytes as a string. */
    Result<std::string> str();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return src_.size() - pos_; }

    /** True when every byte has been consumed (well-formed blob check). */
    bool atEnd() const { return pos_ == src_.size(); }

  private:
    Error truncated(const char *what) const;

    const Bytes &src_;
    std::size_t pos_ = 0;
};

} // namespace mintcb

#endif // MINTCB_COMMON_BYTEBUF_HH
