/**
 * @file
 * The durable sealed-state engine.
 *
 * SealedStore promotes the secure-kvstore example's state handling
 * into a first-class subsystem: a crash-safe, rollback-detecting,
 * migratable home for sealed PAL state.
 *
 * Durability: every mutation is journaled as an encrypted+MAC'd MWL1
 * record (store/wal.hh); commit() appends a commit record, fsyncs the
 * log, and only then advances the hardware freshness root. Periodic
 * checkpoints seal the whole map into a snapshot file and rewrite the
 * log down to a fresh generation (log compaction, new log key).
 *
 * Freshness: the store owns a TPM monotonic counter on its *identity
 * machine* -- a dedicated simulated platform that late-launched the
 * store identity PAL at open, exactly the AttestedIdentity idiom, so
 * seal/unseal traffic charges the store's own clocks and can never
 * perturb a service timeline (the PR 4 byte-identity argument). The
 * counter lives in chip NVRAM, persisted via Tpm::exportNvState to a
 * two-slot sidecar file *outside* the store directory (each commit
 * rewrites the older slot in place): an adversary who rolls
 * the directory back to yesterday cannot roll the chip back with it,
 * so open() sees sealed epoch < hardware counter and refuses with a
 * typed rollback error instead of silently serving stale state.
 *
 * Crash safety: a StoreObserver receives a callback at every injected
 * sync point; returning true kills the engine on the spot (files
 * closed mid-state, all APIs dead), which is how the kill-point sweep
 * murders the store at each boundary and asserts recovery converges.
 */

#ifndef MINTCB_STORE_ENGINE_HH
#define MINTCB_STORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/counters.hh"
#include "common/file.hh"
#include "common/result.hh"
#include "machine/machine.hh"
#include "sea/attestation.hh"
#include "sea/pal.hh"
#include "sea/statestore.hh"
#include "store/wal.hh"

namespace mintcb::store
{

/** What one epoch container holds: its magic, its layout version and
 *  the name its refusals use ("corrupt <what>: ..."). */
struct ContainerFormat
{
    std::uint32_t magic;
    std::uint16_t version;
    const char *what;
};

/** MSS1, the snapshot file a checkpoint writes: the epoch is an
 *  advisory copy of the sealed epoch (what the inspect tool shows
 *  without unsealing; the sealed one is authoritative) and the body is
 *  the SealedBlob wire of the map payload. */
inline constexpr std::uint32_t snapshotMagic = 0x4d535331;
inline constexpr std::uint16_t snapshotVersion = 1;
inline constexpr ContainerFormat snapshotFormat{snapshotMagic,
                                                snapshotVersion, "snapshot"};

/** MNV1, one chip-NV slot: the epoch is the slot's write generation
 *  and the body the chip's TNV1 image (Tpm::exportNvState). */
inline constexpr std::uint32_t nvSlotMagic = 0x4d4e5631;
inline constexpr std::uint16_t nvSlotVersion = 1;
inline constexpr ContainerFormat nvSlotFormat{nvSlotMagic, nvSlotVersion,
                                              "NV slot"};

/**
 * The one epoch-container codec, for MSS1 snapshots and MNV1 chip-NV
 * slots:
 *
 *     u32 magic | u16 version | u64 epoch |
 *     lengthPrefixed(body) | u32 crc32 (IEEE, over all before it)
 *
 * Like the MWL1 CRC, this one is keyless: it catches bit rot and torn
 * writes before anything is unsealed or imported, not an adversary.
 */
struct EpochContainer
{
    std::uint64_t epoch = 0;
    Bytes body;

    Bytes encode(const ContainerFormat &format) const;
    /** CRC first, then the fields; refusals read "corrupt <what>:
     *  ..." (or "unknown <what> version"). */
    static Result<EpochContainer> decode(const ContainerFormat &format,
                                         const Bytes &wire);
};

/** @name The chip-NV file: two slots, each rewritten in place.
 * Slot i is bytes [i * nvSlotBytes, (i + 1) * nvSlotBytes): an MNV1
 * container at its front, zeros after it. A commit writes the older
 * slot at the next generation; a load takes the newest slot whose CRC
 * checks (DESIGN.md section 15.2). @{ */
inline constexpr std::size_t nvSlotCount = 2;
/** One page a slot, so the two slots never share a disk block and a
 *  torn write of one cannot reach the other. */
inline constexpr std::size_t nvSlotBytes = 4096;

/** Check that @p file is nvSlotCount slots. A bare TNV1 image (the
 *  pre-slot sidecar) is refused as invalidArgument, any other size as
 *  integrityFailure. */
Status checkChipNvLayout(const Bytes &file);

/** Decode slot @p slot of a file that passed checkChipNvLayout (any
 *  other file or slot is invalidArgument). */
Result<EpochContainer> decodeNvSlot(const Bytes &file, std::size_t slot);
/** @} */

/** Where the engine is between two durability actions. Observers are
 *  invoked *after* the named action completed. */
enum class SyncPoint
{
    walAppended,      //!< a mutation record reached the OS file
    commitAppended,   //!< the commit record reached the OS file
    commitSynced,     //!< fsync returned: the batch is on the platter
    counterAdvanced,  //!< the hardware freshness counter incremented
    nvWritten,        //!< the chip-NV slot was written and synced
    snapshotReplaced, //!< the checkpoint atomically replaced the old one
    walRewritten,     //!< the log was compacted to a fresh generation
};

/** Printable sync-point name (the kill-point sweep's test labels). */
const char *syncPointName(SyncPoint p);

/** Crash-injection hook: return true to kill the engine immediately
 *  after the named sync point (modeling power loss at that boundary). */
class StoreObserver
{
  public:
    virtual ~StoreObserver() = default;
    virtual bool
    onSyncPoint(SyncPoint point, std::uint64_t epoch)
    {
        (void)point;
        (void)epoch;
        return false;
    }
};

/** Engine observability; fields() names each counter's store_* metric
 *  family (obs::bridgeCounters). */
struct StoreStats
{
    std::uint64_t walRecordsAppended = 0;
    std::uint64_t walBytesAppended = 0;
    std::uint64_t commits = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t recoveries = 0;          //!< opens that replayed a log
    std::uint64_t recordsReplayed = 0;
    std::uint64_t commitsReplayed = 0;
    std::uint64_t tornBytesDiscarded = 0;  //!< truncated torn tails
    std::uint64_t uncommittedDiscarded = 0; //!< mutations past last commit
    std::uint64_t recoveryRekeys = 0; //!< generations rotated after a
                                      //!< truncating recovery
    std::uint64_t rollbackRejections = 0;
    std::uint64_t counterRepairs = 0; //!< commit durable, increment lost
    std::uint64_t migrationsOut = 0;
    std::uint64_t migrationsIn = 0;

    static std::span<const CounterField<StoreStats>> fields();

    /** One-line `store: label=value ...` rendering. */
    std::string str() const;
};

/** Engine tuning. */
struct StoreConfig
{
    /** Directory holding wal.mwl + snapshot.mss (the untrusted disk). */
    std::string dir;

    /** Chip-NV sidecar path; empty derives "<dir>.tpmnv". Deliberately
     *  *outside* dir: rolling the store directory back must not roll
     *  the chip back (that is the whole point of the counter). */
    std::string nvPath;

    /** False: open only an existing store. A missing WAL is then
     *  notFound ("no such file: <dir>/wal.mwl") and open creates
     *  nothing -- no directory, log or sidecar. */
    bool createIfMissing = true;

    /** Seed for the identity machine (same seed across restarts =>
     *  same SRK => old blobs still unseal). */
    std::uint64_t seed = 0x53544f52; // "STOR"

    /** Auto-checkpoint after this many commits (0 = manual only). */
    std::size_t snapshotEvery = 64;

    /** Crash-injection hook (tests). */
    StoreObserver *observer = nullptr;
};

class MigrationBundle;

/**
 * The engine. Thread-safe (one mutex over the public surface): PAL
 * bodies on several service workers may share one store; WAL order
 * then follows scheduling, but the *recovered contents* stay a pure
 * function of the committed mutations, which is what the worker-sweep
 * tests pin down.
 *
 *     auto store = SealedStore::open({.dir = "/var/lib/pal-state"});
 *     (*store)->put("ssh-host-key", sealedBytes);
 *     (*store)->commit();               // fsync + counter advance
 */
class SealedStore final : public sea::SealedStateStore
{
  public:
    /** Open (or create) the store at cfg.dir. Typed failures: a
     *  rolled-back directory is integrityFailure with a "rollback
     *  detected" message, never a silently accepted stale map. */
    static Result<std::unique_ptr<SealedStore>> open(StoreConfig cfg);

    SealedStore(const SealedStore &) = delete;
    SealedStore &operator=(const SealedStore &) = delete;

    /** @name Mutations (journaled immediately, durable at commit(); a
     *  failed append kills the instance). @{ */
    Status put(const std::string &key, const Bytes &value);
    Status remove(const std::string &key);
    /** Durably commit every mutation since the last commit: append the
     *  commit record, fsync, advance the hardware counter, persist the
     *  chip NV. No-op when nothing is pending. Any I/O failure after
     *  the commit record is appended kills the instance (a retry would
     *  write a duplicate epoch and double-advance the counter); reopen
     *  to repair. */
    Status commit();
    /** @} */

    /** @name Reads (in-memory map, including uncommitted writes). @{ */
    Result<Bytes> get(const std::string &key) const;
    bool has(const std::string &key) const;
    std::size_t size() const;
    std::vector<std::string> keys() const;
    /** @} */

    /** Seal the map into a snapshot and compact the log to a fresh
     *  generation (new log key). Refuses with uncommitted mutations. */
    Status checkpoint();

    /** @name sea::SealedStateStore (the PAL state hook).
     * store commits per call: a PAL front end that stored state must
     * be able to crash immediately after and find it on replay. @{ */
    Result<Bytes> loadSealedState(const std::string &name) override;
    Status storeSealedState(const std::string &name,
                            const Bytes &sealed) override;
    bool hasSealedState(const std::string &name) const override;
    /** @} */

    /** Committed epoch (equals the hardware counter when healthy). */
    std::uint64_t epoch() const;

    /** Mutations journaled since the last commit. */
    std::size_t pendingMutations() const;

    /** Canonical digest of (epoch, sorted map): equal digests mean
     *  equal recovered state, independent of WAL arrival order. */
    Bytes stateDigest() const;

    /** False after an injected crash or an outbound migration. */
    bool alive() const;

    const StoreStats &stats() const { return stats_; }
    const StoreConfig &config() const { return config_; }

    /** @name Migration support (driven by store/migrate.hh). @{ */
    /** The well-known store identity PAL (what a migration source
     *  whitelists before re-sealing state to a target). */
    static sea::Pal identityPal();
    /** This store's SRK public key, wire-encoded (what a target sends
     *  to the source so state can be re-sealed to its TPM). */
    Bytes srkPublicEncoded() const;
    /** Quote this store's PCR-17 identity over
     *  sha256(nonce || srkPublicEncoded()) -- binding the quoted
     *  launch to the SRK that will receive the re-sealed state. The
     *  AIK certificate is issued on the first call and kept. */
    Result<sea::Attestation> attestForMigration(const Bytes &nonce);
    /** Unseal the full map and hand it, with its committed epoch, to
     *  @p package, which re-seals it to a verified target and returns
     *  the outbound bundle; then invalidate this replica: the hardware
     *  counter advances with no matching commit, so every future open
     *  of this directory is a typed rollback rejection. Refuses with
     *  uncommitted mutations. All of it runs under the store lock, so
     *  no commit can land in between; if @p package refuses, nothing
     *  is invalidated. */
    Result<Bytes> exportForMigration(
        const std::function<Result<Bytes>(const Bytes &payload,
                                          std::uint64_t epoch)> &package);
    /** Adopt a verified inbound bundle into an empty store. */
    Status adoptMigrated(const Bytes &snapshot_payload);
    /** @} */

    /** @name Introspection for tools and the kill-point harness. @{ */
    /** Bytes of the WAL known to be on the platter (post-fsync). */
    std::size_t syncedWalBytes() const;
    const std::string &walPath() const { return walPath_; }
    const std::string &snapshotPath() const { return snapPath_; }
    const std::string &nvPath() const { return nvPath_; }
    /** @} */

  private:
    friend class MigrationAuthority; //!< unseals inbound bundles

    explicit SealedStore(StoreConfig cfg);

    Status openInternal();
    Status launchIdentity();
    Status loadChipNv();
    Status persistChipNv();
    Result<Bytes> loadSnapshot(std::uint64_t *snap_epoch);
    Status replayWal(std::uint64_t snap_epoch);
    Status writeFreshWal();
    Status journalMutation(bool is_remove, const std::string &key,
                           const Bytes &value);
    Status checkpointLocked();
    Status sealSnapshot();
    Bytes encodeMapPayload(std::uint64_t at_epoch) const;
    Status applyMapPayload(const Bytes &payload,
                           std::uint64_t *out_epoch);
    Result<Bytes> unsealWithDiagnosis(const tpm::SealedBlob &blob);
    Status die(const char *what);
    Status fatal(Status cause, const char *what);
    Bytes srkPublicEncodedLocked() const;
    bool observe(SyncPoint point);
    Status requireAlive() const;

    StoreConfig config_;
    std::string walPath_;
    std::string snapPath_;
    std::string nvPath_;

    /** Mutable: the TPM front end charges sim time on every access,
     *  so even logically-const reads (the SRK public key) tick it. */
    mutable machine::Machine idMachine_;
    Status launchStatus_;
    std::uint32_t counterHandle_ = 0;
    /** idMachine_'s AIK certificate, issued on the first migration
     *  attest (under mu_). */
    std::optional<sea::AikCertificate> aikCert_;

    mutable std::mutex mu_;
    std::map<std::string, Bytes> map_;
    std::uint64_t epoch_ = 0;
    Bytes logKey_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t lastJournaledSeq_ = 0;
    std::size_t pending_ = 0;
    std::size_t commitsSinceCheckpoint_ = 0;
    /** The open WAL generation; closed once the instance is dead. */
    AppendFile wal_;
    /** The chip-NV slot file (closed until the first persist of a
     *  fresh chip creates it, and once the instance is dead), the slot
     *  holding the newest image and that image's generation. */
    SlotFile nvFile_;
    std::size_t nvSlot_ = 0;
    std::uint64_t nvGeneration_ = 0;
    /** Recovery discarded bytes (torn tail or uncommitted records): a
     *  partially written record's ciphertext may survive on the
     *  attacker-visible disk under a sequence number a new write would
     *  reuse, so open() must rotate the generation before serving. */
    bool truncatedOnRecovery_ = false;
    bool dead_ = false;
    std::string deadReason_;

    StoreStats stats_;
};

} // namespace mintcb::store

#endif // MINTCB_STORE_ENGINE_HH
