/**
 * @file
 * MWL1: the sealed-store write-ahead log record format.
 *
 * The engine's durability story is a log of length-prefixed,
 * CRC-guarded records behind the same 12-byte RecordHeader as MGW1
 * frames (common/bytebuf.hh, net/wire.hh), written append-only and
 * fsync'd at batch-commit boundaries:
 *
 *     u32 magic   "MWL1" (0x4d574c31)
 *     u16 version (walVersion; mismatches are refused, never guessed)
 *     u16 type    (RecordType)
 *     u32 length  (payload bytes that follow; <= maxWalPayload)
 *     ...payload...
 *     u32 crc32   (IEEE, over magic..payload)
 *
 * The CRC is *not* the integrity story -- it is keyless, so an
 * adversarial disk can forge it. It exists to make torn tails and bit
 * rot detectable without unsealing anything: a scan walks records
 * until the first short/corrupt one and reports how many bytes were
 * well-formed, which is exactly the prefix recovery may trust
 * structurally. Authenticity of mutations comes from a per-generation
 * log key (sealed to the store's PAL identity in a keyBlob record);
 * every mutation and commit record carries an HMAC under that key, and
 * replay order is pinned by the sequence number inside the MAC.
 */

#ifndef MINTCB_STORE_WAL_HH
#define MINTCB_STORE_WAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytebuf.hh"
#include "common/result.hh"
#include "common/types.hh"

namespace mintcb::store
{

/** WAL record magic: "MWL1". */
inline constexpr std::uint32_t walMagic = 0x4d574c31;

/** Record-layout revision carried in every record header. */
inline constexpr std::uint16_t walVersion = 1;

/** Fixed record-header size on disk (magic + version + type + length):
 *  the RecordHeader MGW1 frames use too. */
inline constexpr std::size_t walHeaderBytes = RecordHeader::bytes;

/** Trailing CRC size. */
inline constexpr std::size_t walCrcBytes = 4;

/** Upper bound on one record's payload (a corrupted length field must
 *  not make replay allocate unbounded memory). */
inline constexpr std::size_t maxWalPayload = 1u << 20;

/** Record kinds. A generation opens with exactly one keyBlob record;
 *  mutations accumulate until a commit record closes the batch. */
enum class RecordType : std::uint16_t
{
    keyBlob = 1, //!< sealed per-generation log key (SealedBlob bytes)
    put = 2,     //!< encrypted+MAC'd {key, value} insert/overwrite
    remove = 3,  //!< encrypted+MAC'd {key} erase
    commit = 4,  //!< batch boundary: epoch + covered sequence + MAC
};

/** Printable record-type name (logs, the inspect tool, tests). */
const char *recordTypeName(RecordType t);

/** One parsed record. */
struct WalRecord
{
    RecordType type = RecordType::commit;
    Bytes payload;
};

/** IEEE CRC32 over @p len bytes of @p data starting at @p offset. */
std::uint32_t crc32(const Bytes &data, std::size_t offset,
                    std::size_t len);

/** Append one framed record (header + payload + CRC) to @p out. */
void appendRecord(Bytes &out, RecordType type, const Bytes &payload);

/** Result of a structural scan over a WAL image. */
struct WalScan
{
    std::vector<WalRecord> records; //!< every well-formed record
    /** File offset one past each record (records[i] ends at
     *  recordEnds[i]); recovery truncates uncommitted tails to the
     *  last committed boundary using these. */
    std::vector<std::size_t> recordEnds;
    std::size_t validBytes = 0;     //!< prefix length that parsed clean
    bool torn = false;              //!< scan stopped before end-of-file
    std::string tornReason;         //!< why (short header, bad CRC, ...)
};

/**
 * Walk @p image from the front, collecting records until end-of-file
 * or the first structural defect. Total: any byte string in, a clean
 * WalScan out -- a torn tail or flipped bit is data, not an error.
 */
WalScan scanWal(const Bytes &image);

/** @name Authenticated mutation payloads.
 * put/remove payload layout: u64 seq | u32 ctLen | ct | 32-byte MAC.
 * The plaintext (u8 op | str key | lengthPrefixed value) is encrypted
 * with crypto::hmacSha256Xor under the generation log key, prefix
 * str("mwl-ks") || u64 seq, and MAC'd as
 * HMAC(logKey, "mwl-rec" || seq || lp(ct)); commit payloads are
 * u64 epoch | u64 upToSeq | 32-byte MAC with
 * HMAC(logKey, "mwl-commit" || epoch || upToSeq). @{ */

/** A decrypted, authenticated mutation. */
struct Mutation
{
    bool isRemove = false;
    std::string key;
    Bytes value; //!< empty for removes
    std::uint64_t seq = 0;
};

/** Encode + encrypt + MAC one mutation under @p log_key. */
Bytes encodeMutation(const Bytes &log_key, const Mutation &m);

/** Decrypt + verify one put/remove payload. Fails with integrityFailure
 *  on a MAC mismatch (forged or re-keyed record). */
Result<Mutation> decodeMutation(const Bytes &log_key,
                                const Bytes &payload,
                                bool is_remove);

/** A batch-commit marker. */
struct CommitMark
{
    std::uint64_t epoch = 0;   //!< strictly monotone per generation lineage
    std::uint64_t upToSeq = 0; //!< last mutation sequence it covers
};

/** Encode + MAC one commit marker under @p log_key. */
Bytes encodeCommit(const Bytes &log_key, const CommitMark &mark);

/** Verify + decode one commit payload. */
Result<CommitMark> decodeCommit(const Bytes &log_key,
                                const Bytes &payload);

/** @} */

/** Exact on-disk payload size encodeMutation would produce for a
 *  mutation with these key/value sizes. The engine bounds mutations
 *  against maxWalPayload with this *before* journaling anything, so a
 *  record the replay scanner would refuse as oversized can never be
 *  committed in the first place. */
std::size_t encodedMutationBytes(std::size_t key_bytes,
                                 std::size_t value_bytes);

/**
 * Derive a replacement generation key from the previous one.
 *
 * The machine RNG is seeded and restarts from the same position on
 * every open, so a raw rng draw after a crash can reproduce bytes an
 * earlier instance already turned into a key (or published). Chaining
 * through the previous key -- which only ever exists unsealed inside
 * an engine -- keeps every generation's keystream distinct even at
 * colliding RNG positions: HMAC(prev_key, "mwl-rekey" || lp(fresh) ||
 * counter).
 */
Bytes chainedGenerationKey(const Bytes &prev_key, const Bytes &fresh,
                           std::uint64_t counter);

} // namespace mintcb::store

#endif // MINTCB_STORE_WAL_HH
