/**
 * @file
 * MWL1 record codec implementation.
 */

#include "store/wal.hh"

#include <array>

#include "common/bytebuf.hh"
#include "crypto/hmac.hh"

namespace mintcb::store
{

namespace
{

/** IEEE CRC32 lookup table, built once. */
const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/** Record @p seq's stream prefix (crypto::hmacSha256Xor). */
Bytes
streamPrefix(std::uint64_t seq)
{
    ByteWriter w;
    w.str("mwl-ks");
    w.u64(seq);
    return w.take();
}

/** HMAC over "mwl-rec" || seq || lp(ct); the ciphertext streams
 *  straight into the MAC after its header, as transport MACs do. */
Bytes
mutationMac(const Bytes &log_key, std::uint64_t seq, const Bytes &ct)
{
    ByteWriter w;
    w.str("mwl-rec");
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(ct.size()));
    crypto::HmacSha256 mac(log_key);
    mac.update(w.bytes());
    mac.update(ct);
    return mac.finish();
}

Bytes
commitMac(const Bytes &log_key, const CommitMark &mark)
{
    ByteWriter w;
    w.str("mwl-commit");
    w.u64(mark.epoch);
    w.u64(mark.upToSeq);
    return crypto::hmacSha256(log_key, w.bytes());
}

} // namespace

const char *
recordTypeName(RecordType t)
{
    switch (t) {
      case RecordType::keyBlob:
        return "keyBlob";
      case RecordType::put:
        return "put";
      case RecordType::remove:
        return "remove";
      case RecordType::commit:
        return "commit";
    }
    return "unknown";
}

std::uint32_t
crc32(const Bytes &data, std::size_t offset, std::size_t len)
{
    const auto &table = crcTable();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ data[offset + i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
appendRecord(Bytes &out, RecordType type, const Bytes &payload)
{
    const std::size_t start = out.size();
    out.resize(start + walHeaderBytes);
    RecordHeader{walMagic, walVersion, static_cast<std::uint16_t>(type),
                 static_cast<std::uint32_t>(payload.size())}
        .store(out.data() + start);
    ByteWriter w(out);
    w.raw(payload);
    w.u32(crc32(out, start, out.size() - start));
}

WalScan
scanWal(const Bytes &image)
{
    WalScan scan;
    std::size_t pos = 0;
    auto stop = [&](std::string why) {
        scan.torn = true;
        scan.tornReason = std::move(why);
    };
    while (pos < image.size()) {
        if (image.size() - pos < walHeaderBytes) {
            stop("short record header");
            break;
        }
        const RecordHeader header = RecordHeader::load(image.data() + pos);
        if (header.magic != walMagic) {
            stop("bad record magic");
            break;
        }
        if (header.version != walVersion) {
            stop("unknown record version");
            break;
        }
        if (header.type < 1 ||
            header.type > static_cast<std::uint16_t>(RecordType::commit)) {
            stop("unknown record type");
            break;
        }
        const std::uint32_t length = header.length;
        if (length > maxWalPayload) {
            stop("oversized record payload");
            break;
        }
        const std::size_t total = walHeaderBytes + length + walCrcBytes;
        if (image.size() - pos < total) {
            stop("short record body");
            break;
        }
        const std::uint32_t stored =
            loadBe32(image.data() + pos + walHeaderBytes + length);
        const std::uint32_t computed =
            crc32(image, pos, walHeaderBytes + length);
        if (stored != computed) {
            stop("record CRC mismatch");
            break;
        }
        WalRecord record;
        record.type = static_cast<RecordType>(header.type);
        record.payload.assign(
            image.begin() +
                static_cast<std::ptrdiff_t>(pos + walHeaderBytes),
            image.begin() +
                static_cast<std::ptrdiff_t>(pos + walHeaderBytes +
                                            length));
        scan.records.push_back(std::move(record));
        pos += total;
        scan.recordEnds.push_back(pos);
        scan.validBytes = pos;
    }
    return scan;
}

Bytes
encodeMutation(const Bytes &log_key, const Mutation &m)
{
    ByteWriter plain;
    plain.u8(m.isRemove ? 2 : 1);
    plain.str(m.key);
    plain.lengthPrefixed(m.value);
    const Bytes ct =
        crypto::hmacSha256Xor(log_key, streamPrefix(m.seq), plain.take());

    ByteWriter w;
    w.u64(m.seq);
    w.lengthPrefixed(ct);
    w.raw(mutationMac(log_key, m.seq, ct));
    return w.take();
}

Result<Mutation>
decodeMutation(const Bytes &log_key, const Bytes &payload,
               bool is_remove)
{
    ByteReader r(payload);
    Mutation m;
    m.isRemove = is_remove;
    m.seq = r.getU64();
    const Bytes ct = r.getLengthPrefixed();
    const Bytes mac = r.getRaw(32);
    if (auto s = r.finish(Errc::integrityFailure,
                          "trailing bytes in mutation record");
        !s.ok()) {
        return s.error();
    }
    if (!crypto::constantTimeEqual(mutationMac(log_key, m.seq, ct), mac)) {
        return Error(Errc::integrityFailure,
                     "mutation record MAC mismatch");
    }
    const Bytes plain =
        crypto::hmacSha256Xor(log_key, streamPrefix(m.seq), ct);
    ByteReader pr(plain);
    const std::uint8_t op = pr.getU8();
    if (pr.ok() && op != (is_remove ? 2 : 1)) {
        return Error(Errc::integrityFailure,
                     "mutation op does not match its record type");
    }
    m.key = pr.getStr();
    m.value = pr.getLengthPrefixed();
    return pr.finish(std::move(m), Errc::integrityFailure,
                     "trailing bytes in mutation plaintext");
}

Bytes
encodeCommit(const Bytes &log_key, const CommitMark &mark)
{
    ByteWriter w;
    w.u64(mark.epoch);
    w.u64(mark.upToSeq);
    w.raw(commitMac(log_key, mark));
    return w.take();
}

std::size_t
encodedMutationBytes(std::size_t key_bytes, std::size_t value_bytes)
{
    // Plaintext: u8 op | lp(key) | lp(value); payload wraps it as
    // u64 seq | lp(ct) | 32-byte MAC (ct is plaintext-sized).
    const std::size_t ct = 1 + 4 + key_bytes + 4 + value_bytes;
    return 8 + 4 + ct + 32;
}

Bytes
chainedGenerationKey(const Bytes &prev_key, const Bytes &fresh,
                     std::uint64_t counter)
{
    ByteWriter w;
    w.str("mwl-rekey");
    w.lengthPrefixed(fresh);
    w.u64(counter);
    return crypto::hmacSha256(prev_key, w.bytes());
}

Result<CommitMark>
decodeCommit(const Bytes &log_key, const Bytes &payload)
{
    ByteReader r(payload);
    CommitMark mark;
    mark.epoch = r.getU64();
    mark.upToSeq = r.getU64();
    const Bytes mac = r.getRaw(32);
    if (auto s = r.finish(Errc::integrityFailure,
                          "trailing bytes in commit record");
        !s.ok()) {
        return s.error();
    }
    if (!crypto::constantTimeEqual(commitMac(log_key, mark), mac)) {
        return Error(Errc::integrityFailure,
                     "commit record MAC mismatch");
    }
    return mark;
}

} // namespace mintcb::store
