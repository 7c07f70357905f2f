/**
 * @file
 * Durable sealed-state engine implementation.
 */

#include "store/engine.hh"

#include <iterator>

#include "common/bytebuf.hh"
#include "common/file.hh"
#include "crypto/sha256.hh"
#include "latelaunch/latelaunch.hh"
#include "store/migrate.hh"
#include "tpm/blob.hh"
#include "tpm/tpm.hh"

namespace mintcb::store
{

namespace
{

/** The identity machine's platform. */
constexpr machine::PlatformId identityPlatform =
    machine::PlatformId::hpDc5750;

/** Where the identity SLB is staged for the launch. */
constexpr PhysAddr storeSlbAddr = 0x10000;

} // namespace

Bytes
EpochContainer::encode(const ContainerFormat &format) const
{
    Bytes wire;
    ByteWriter w(wire);
    w.u32(format.magic);
    w.u16(format.version);
    w.u64(epoch);
    w.lengthPrefixed(body);
    w.u32(crc32(wire, 0, wire.size()));
    return wire;
}

Result<EpochContainer>
EpochContainer::decode(const ContainerFormat &format, const Bytes &wire)
{
    const std::string corrupt = std::string("corrupt ") + format.what;
    if (wire.size() < walCrcBytes)
        return Error(Errc::integrityFailure, corrupt + ": short container");
    const std::size_t body = wire.size() - walCrcBytes;
    if (loadBe32(wire.data() + body) != crc32(wire, 0, body)) {
        return Error(Errc::integrityFailure,
                     corrupt + ": container CRC mismatch");
    }
    const Bytes fields(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(body));
    ByteReader r(fields);
    const std::uint32_t magic = r.getU32();
    if (r.ok() && magic != format.magic)
        return Error(Errc::integrityFailure, corrupt + ": bad magic");
    const std::uint16_t version = r.getU16();
    if (r.ok() && version != format.version) {
        return Error(Errc::invalidArgument,
                     std::string("unknown ") + format.what + " version");
    }
    EpochContainer c;
    c.epoch = r.getU64();
    c.body = r.getLengthPrefixed();
    const std::string trailing = corrupt + ": trailing bytes";
    return r.finish(std::move(c), Errc::integrityFailure,
                    trailing.c_str());
}

Status
checkChipNvLayout(const Bytes &file)
{
    if (file.size() == nvSlotCount * nvSlotBytes)
        return okStatus();
    if (file.size() >= 4 && loadBe32(file.data()) == tpm::nvStateMagic) {
        return Error(Errc::invalidArgument,
                     "chip NV file is a bare TNV1 image, not the "
                     "two-slot MNV1 layout");
    }
    return Error(Errc::integrityFailure,
                 "corrupt chip NV file: " + std::to_string(file.size()) +
                     " bytes, not " + std::to_string(nvSlotCount) +
                     " slots of " + std::to_string(nvSlotBytes));
}

Result<EpochContainer>
decodeNvSlot(const Bytes &file, std::size_t slot)
{
    if (slot >= nvSlotCount || file.size() != nvSlotCount * nvSlotBytes) {
        return Error(Errc::invalidArgument,
                     "NV slot " + std::to_string(slot) +
                         " is outside the chip NV file");
    }
    // The container sits at the slot's front; its length field says
    // where it ends and the zero padding begins.
    constexpr std::size_t lengthAt = 4 + 2 + 8;
    const auto begin = file.begin() +
                       static_cast<std::ptrdiff_t>(slot * nvSlotBytes);
    const std::uint64_t length =
        lengthAt + 4 + std::uint64_t{loadBe32(&*begin + lengthAt)} +
        walCrcBytes;
    if (length > nvSlotBytes) {
        return Error(Errc::integrityFailure,
                     "corrupt NV slot: length overruns the slot");
    }
    return EpochContainer::decode(
        nvSlotFormat,
        Bytes(begin, begin + static_cast<std::ptrdiff_t>(length)));
}

const char *
syncPointName(SyncPoint p)
{
    switch (p) {
      case SyncPoint::walAppended:
        return "walAppended";
      case SyncPoint::commitAppended:
        return "commitAppended";
      case SyncPoint::commitSynced:
        return "commitSynced";
      case SyncPoint::counterAdvanced:
        return "counterAdvanced";
      case SyncPoint::nvWritten:
        return "nvWritten";
      case SyncPoint::snapshotReplaced:
        return "snapshotReplaced";
      case SyncPoint::walRewritten:
        return "walRewritten";
    }
    return "unknown";
}

namespace
{

using StoreField = CounterField<StoreStats>;

constexpr StoreField storeFields[] = {
    {"store_wal_records_appended_total",
     "WAL records appended (mutations and commit marks)", "wal_records",
     &StoreStats::walRecordsAppended},
    {"store_wal_bytes_appended_total", "Framed WAL bytes appended",
     "wal_bytes", &StoreStats::walBytesAppended},
    {"store_commits_total",
     "Durable batch commits (fsync + counter advance)", "commits",
     &StoreStats::commits},
    {"store_checkpoints_total", "Snapshot checkpoints with log compaction",
     "checkpoints", &StoreStats::checkpoints},
    {"store_fsyncs_total", "WAL fsync calls", "fsyncs",
     &StoreStats::fsyncs},
    {"store_recoveries_total", "Opens that replayed an existing WAL",
     "recoveries", &StoreStats::recoveries},
    {"store_records_replayed_total", "WAL records examined during recovery",
     "records_replayed", &StoreStats::recordsReplayed},
    {"store_commits_replayed_total", "Commit marks verified during recovery",
     "commits_replayed", &StoreStats::commitsReplayed},
    {"store_torn_bytes_discarded_total",
     "Torn-tail bytes truncated during recovery", "torn_bytes",
     &StoreStats::tornBytesDiscarded},
    {"store_uncommitted_discarded_total",
     "Uncommitted mutations discarded during recovery", "uncommitted",
     &StoreStats::uncommittedDiscarded},
    {"store_recovery_rekeys_total",
     "Generations rotated after a truncating recovery", "rekeys",
     &StoreStats::recoveryRekeys},
    {"store_rollback_rejections_total",
     "Opens refused because the durable epoch was behind the hardware "
     "counter",
     "rollback_rejections", &StoreStats::rollbackRejections},
    {"store_counter_repairs_total",
     "Forward repairs of a lost counter increment", "counter_repairs",
     &StoreStats::counterRepairs},
    {"store_migrations_out_total",
     "Outbound attested migrations (store invalidated)", "migrations_out",
     &StoreStats::migrationsOut},
    {"store_migrations_in_total", "Inbound migration bundles adopted",
     "migrations_in", &StoreStats::migrationsIn},
};
static_assert(sizeof(StoreStats) ==
                  std::size(storeFields) * sizeof(std::uint64_t),
              "every StoreStats field needs a row in storeFields");

} // namespace

std::span<const StoreField>
StoreStats::fields()
{
    return storeFields;
}

std::string
StoreStats::str() const
{
    return "store: " + renderCounters(*this) + "\n";
}

sea::Pal
SealedStore::identityPal()
{
    return sea::Pal::fromLogic("mintcb-store", 12 * 1024,
                               [](sea::PalContext &) {
                                   return okStatus();
                               });
}

SealedStore::SealedStore(StoreConfig cfg)
    : config_(std::move(cfg)),
      walPath_(config_.dir + "/wal.mwl"),
      snapPath_(config_.dir + "/snapshot.mss"),
      nvPath_(config_.nvPath.empty() ? config_.dir + ".tpmnv"
                                     : config_.nvPath),
      idMachine_(machine::PlatformSpec::forPlatform(identityPlatform),
                 config_.seed)
{
}

Result<std::unique_ptr<SealedStore>>
SealedStore::open(StoreConfig cfg)
{
    if (cfg.dir.empty())
        return Error(Errc::invalidArgument, "store dir must be set");
    std::unique_ptr<SealedStore> store(new SealedStore(std::move(cfg)));
    if (auto s = store->openInternal(); !s.ok())
        return s.error();
    return store;
}

Status
SealedStore::launchIdentity()
{
    const sea::Pal pal = identityPal();
    latelaunch::LateLaunch launcher(idMachine_);
    if (auto s = idMachine_.writeAs(0, storeSlbAddr, pal.slbImage());
        !s.ok()) {
        return s;
    }
    auto report = launcher.invoke(0, storeSlbAddr);
    if (!report.ok())
        return report.error();
    launcher.resumeOtherCpus();
    return okStatus();
}

Status
SealedStore::loadChipNv()
{
    auto file = nvFile_.open(nvPath_, nvSlotBytes);
    if (!file) {
        if (file.error().code != Errc::notFound)
            return file.error();
        // Fresh chip: bind the store's freshness counter (handle 0).
        // The slot file is created at the first persist.
        auto handle = idMachine_.tpm().counterCreate();
        if (!handle)
            return handle.error();
        counterHandle_ = *handle;
        return okStatus();
    }
    if (auto s = checkChipNvLayout(*file); !s.ok())
        return Error(s.error().code, s.error().message + ": " + nvPath_);
    // The newest slot whose CRC checks. A torn newest slot reads as
    // the one before it, one increment behind: recovery repairs that
    // forward like any other lost increment.
    std::optional<EpochContainer> newest;
    for (std::size_t i = 0; i < nvSlotCount; ++i) {
        auto slot = decodeNvSlot(*file, i);
        if (slot && (!newest || slot->epoch > newest->epoch)) {
            newest = slot.take();
            nvSlot_ = i;
        }
    }
    if (!newest) {
        return Error(Errc::integrityFailure,
                     "corrupt chip NV file: no slot's CRC checks: " +
                         nvPath_);
    }
    nvGeneration_ = newest->epoch;
    if (auto s = idMachine_.tpm().importNvState(newest->body); !s.ok())
        return s;
    counterHandle_ = 0;
    if (!idMachine_.tpm().counterRead(counterHandle_).ok()) {
        return Error(Errc::integrityFailure,
                     "chip NV image holds no freshness counter");
    }
    return okStatus();
}

Status
SealedStore::persistChipNv()
{
    const Bytes slot =
        EpochContainer{nvGeneration_ + 1, idMachine_.tpm().exportNvState()}
            .encode(nvSlotFormat);
    if (slot.size() > nvSlotBytes) {
        return Error(Errc::resourceExhausted,
                     "chip NV image does not fit its slot");
    }
    if (nvFile_.isOpen()) {
        // Overwrite the older slot; the newer one stays intact until
        // this write is durable.
        if (auto s = nvFile_.write(nvSlot_ ^ 1, slot); !s.ok())
            return s;
        nvSlot_ ^= 1;
    } else {
        // A fresh chip's first persist creates the file whole: the
        // image in slot 0, slot 1 zeros. Its size never changes again.
        Bytes file = slot;
        file.resize(nvSlotCount * nvSlotBytes, 0);
        if (auto s = writeFileDurable(nvPath_, file); !s.ok())
            return s;
        if (auto opened = nvFile_.open(nvPath_, nvSlotBytes); !opened)
            return opened.error();
        nvSlot_ = 0;
    }
    ++nvGeneration_;
    return okStatus();
}

Bytes
SealedStore::encodeMapPayload(std::uint64_t at_epoch) const
{
    ByteWriter w;
    w.u64(at_epoch);
    w.u32(static_cast<std::uint32_t>(map_.size()));
    for (const auto &[key, value] : map_) {
        w.str(key);
        w.lengthPrefixed(value);
    }
    return w.take();
}

Status
SealedStore::applyMapPayload(const Bytes &payload,
                             std::uint64_t *out_epoch)
{
    ByteReader r(payload);
    const std::uint64_t epoch = r.getU64();
    std::map<std::string, Bytes> map;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string key = r.getStr();
        Bytes value = r.getLengthPrefixed();
        if (!r.ok())
            break;
        map.emplace(std::move(key), std::move(value));
    }
    if (auto s = r.finish(Errc::integrityFailure,
                          "trailing bytes in snapshot payload");
        !s.ok()) {
        return s;
    }
    map_ = std::move(map);
    *out_epoch = epoch;
    return okStatus();
}

Result<Bytes>
SealedStore::unsealWithDiagnosis(const tpm::SealedBlob &blob)
{
    auto out = idMachine_.tpmAs(0).unseal(blob);
    if (out)
        return out;
    const tpm::UnsealFault fault =
        tpm::classifyUnsealError(out.error());
    return Error(out.error().code,
                 std::string("snapshot unseal failed [") +
                     tpm::unsealFaultName(fault) +
                     "]: " + out.error().message);
}

Result<Bytes>
SealedStore::loadSnapshot(std::uint64_t *snap_epoch)
{
    auto image = readFile(snapPath_);
    if (!image)
        return image.error();
    auto container = EpochContainer::decode(snapshotFormat, *image);
    if (!container)
        return container.error();
    auto blob = tpm::SealedBlob::decode(container->body);
    if (!blob)
        return blob.error();
    auto payload = unsealWithDiagnosis(*blob);
    if (!payload)
        return payload.error();
    std::uint64_t sealedEpoch = 0;
    if (auto s = applyMapPayload(*payload, &sealedEpoch); !s.ok())
        return s.error();
    // The clear epoch is advisory (the inspect tool reads it without
    // unsealing); the sealed one is authoritative. Disagreement means
    // the container was stitched together from two snapshots.
    if (sealedEpoch != container->epoch) {
        return Error(Errc::integrityFailure,
                     "corrupt snapshot: clear epoch does not match "
                     "the sealed epoch");
    }
    *snap_epoch = sealedEpoch;
    return payload.take();
}

Status
SealedStore::sealSnapshot()
{
    auto blob = idMachine_.tpmAs(0).seal(encodeMapPayload(epoch_), {17});
    if (!blob)
        return blob.error();
    return writeFileDurable(
        snapPath_,
        EpochContainer{epoch_, blob->encode()}.encode(snapshotFormat));
}

Status
SealedStore::writeFreshWal()
{
    // The machine RNG restarts from the same seed on every open, so a
    // raw draw here could reproduce a key an earlier instance already
    // used on this disk. Chain every rotation through the previous key
    // (held unsealed only inside the engine) so generations never share
    // a keystream; only the very first generation is a raw draw.
    const Bytes fresh = idMachine_.rng().bytes(32);
    if (logKey_.empty()) {
        logKey_ = fresh;
    } else {
        const std::uint64_t counter =
            idMachine_.tpm().counterRead(counterHandle_).value();
        logKey_ = chainedGenerationKey(logKey_, fresh, counter);
    }
    auto blob = idMachine_.tpmAs(0).seal(logKey_, {17});
    if (!blob)
        return blob.error();
    Bytes image;
    appendRecord(image, RecordType::keyBlob, blob->encode());
    if (auto s = writeFileDurable(walPath_, image); !s.ok())
        return s;
    if (auto s = wal_.open(walPath_, image.size()); !s.ok())
        return s;
    nextSeq_ = 1;
    lastJournaledSeq_ = 0;
    pending_ = 0;
    return okStatus();
}

Status
SealedStore::replayWal(std::uint64_t snap_epoch)
{
    auto image = readFile(walPath_);
    if (!image) {
        if (image.error().code != Errc::notFound ||
            !config_.createIfMissing) {
            return image.error();
        }
        if (snap_epoch > 0 ||
            idMachine_.tpm().counterRead(counterHandle_).value() > 0) {
            return Error(Errc::integrityFailure,
                         "store WAL missing for a non-empty store");
        }
        // Brand-new store: open the first generation.
        if (auto s = writeFreshWal(); !s.ok())
            return s;
        return persistChipNv();
    }

    ++stats_.recoveries;
    WalScan scan = scanWal(*image);
    if (scan.torn) {
        stats_.tornBytesDiscarded += image->size() - scan.validBytes;
    }
    if (scan.records.empty() ||
        scan.records[0].type != RecordType::keyBlob) {
        return Error(Errc::integrityFailure,
                     "store WAL is missing its generation key record");
    }
    auto keyBlob = tpm::SealedBlob::decode(scan.records[0].payload);
    if (!keyBlob)
        return keyBlob.error();
    auto logKey = unsealWithDiagnosis(*keyBlob);
    if (!logKey)
        return logKey.error();
    logKey_ = logKey.take();

    // Replay: apply each committed batch beyond the snapshot epoch;
    // batches the snapshot already folded in are verified and skipped.
    std::vector<Mutation> batch;
    std::uint64_t expectedEpoch = 0; //!< 0 = take it from first commit
    std::uint64_t maxSeq = 0;
    std::size_t lastCommittedEnd = scan.recordEnds.empty()
                                       ? 0
                                       : scan.recordEnds[0];
    std::size_t uncommitted = 0;
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
        const WalRecord &record = scan.records[i];
        ++stats_.recordsReplayed;
        switch (record.type) {
          case RecordType::keyBlob:
            return Error(Errc::integrityFailure,
                         "duplicate generation key record");
          case RecordType::put:
          case RecordType::remove: {
              auto m = decodeMutation(
                  logKey_, record.payload,
                  record.type == RecordType::remove);
              if (!m)
                  return m.error();
              if (m->seq <= maxSeq) {
                  return Error(Errc::integrityFailure,
                               "mutation sequence regressed (spliced "
                               "log)");
              }
              maxSeq = m->seq;
              batch.push_back(m.take());
              ++uncommitted;
              break;
          }
          case RecordType::commit: {
              auto mark = decodeCommit(logKey_, record.payload);
              if (!mark)
                  return mark.error();
              if (expectedEpoch == 0) {
                  // The chain must connect to the snapshot: the first
                  // commit of a generation is snap_epoch + 1, and only
                  // the snapshotReplaced crash window (old WAL, newer
                  // snapshot) legitimately starts lower. Seeding from
                  // whatever commit happens to survive would let an
                  // adversarial disk delete a committed prefix of the
                  // generation without breaking the chain.
                  if (mark->epoch > snap_epoch + 1) {
                      return Error(
                          Errc::integrityFailure,
                          "commit epoch chain starts at " +
                              std::to_string(mark->epoch) +
                              " but the snapshot covers only epoch " +
                              std::to_string(snap_epoch) +
                              " (committed log prefix deleted)");
                  }
                  expectedEpoch = mark->epoch;
              }
              if (mark->epoch != expectedEpoch) {
                  return Error(Errc::integrityFailure,
                               "commit epoch chain broken");
              }
              if (mark->upToSeq != maxSeq) {
                  return Error(Errc::integrityFailure,
                               "commit record does not cover its "
                               "batch");
              }
              if (mark->epoch > snap_epoch) {
                  for (Mutation &m : batch) {
                      if (m.isRemove)
                          map_.erase(m.key);
                      else
                          map_[m.key] = std::move(m.value);
                  }
                  epoch_ = mark->epoch;
              }
              batch.clear();
              uncommitted = 0;
              ++expectedEpoch;
              ++stats_.commitsReplayed;
              lastCommittedEnd = scan.recordEnds[i];
              break;
          }
        }
    }
    epoch_ = std::max(epoch_, snap_epoch);
    stats_.uncommittedDiscarded += uncommitted;
    nextSeq_ = maxSeq + 1;
    lastJournaledSeq_ = 0;
    pending_ = 0;

    if (auto s = wal_.open(walPath_, image->size()); !s.ok())
        return s;
    // Truncate everything past the last committed record: the torn
    // tail (power loss) and any uncommitted mutations both die here,
    // so the on-disk log equals the replayed state exactly.
    if (lastCommittedEnd < image->size()) {
        if (auto s = wal_.truncate(lastCommittedEnd); !s.ok())
            return s;
        // The discarded bytes may include a partially written record
        // whose ciphertext prefix used a sequence number nextSeq_
        // would reissue; openInternal rotates the generation before
        // the store accepts writes, so no keystream repeats.
        truncatedOnRecovery_ = true;
    }
    return okStatus();
}

Status
SealedStore::openInternal()
{
    launchStatus_ = launchIdentity();
    if (!launchStatus_.ok())
        return launchStatus_;
    if (config_.createIfMissing) {
        if (auto s = makeDirs(config_.dir); !s.ok())
            return s;
    }
    if (auto s = loadChipNv(); !s.ok())
        return s;

    std::uint64_t snapEpoch = 0;
    auto snapshot = loadSnapshot(&snapEpoch);
    if (!snapshot && snapshot.error().code != Errc::notFound)
        return snapshot.error();
    epoch_ = snapEpoch;

    if (auto s = replayWal(snapEpoch); !s.ok())
        return s;

    // Reconcile the durable epoch against the hardware counter -- the
    // rollback argument (DESIGN.md section 15.3). One commit of slack
    // is a *forward* repair: the commit record is MAC'd under the
    // sealed log key, so completing the lost increment only ever moves
    // the chip toward state the store genuinely reached.
    const std::uint64_t counter =
        idMachine_.tpm().counterRead(counterHandle_).value();
    if (epoch_ == counter + 1) {
        auto repaired = idMachine_.tpm().counterIncrement(counterHandle_);
        if (!repaired)
            return repaired.error();
        if (auto s = persistChipNv(); !s.ok())
            return s;
        ++stats_.counterRepairs;
    } else if (epoch_ < counter) {
        ++stats_.rollbackRejections;
        return Error(Errc::integrityFailure,
                     "rollback detected: durable epoch " +
                         std::to_string(epoch_) +
                         " is behind hardware counter " +
                         std::to_string(counter));
    } else if (epoch_ > counter + 1) {
        return Error(Errc::integrityFailure,
                     "sealed state claims epoch " +
                         std::to_string(epoch_) +
                         " but the hardware counter only reached " +
                         std::to_string(counter));
    }

    // A truncating recovery rotates the generation: seal the replayed
    // map as a snapshot and open a fresh log under a chained key, so a
    // record the new instance journals can never share a keystream
    // with a discarded (possibly half-written) one. This runs only
    // after reconciliation -- a rolled-back directory must be refused
    // before anything overwrites its snapshot.
    if (truncatedOnRecovery_) {
        truncatedOnRecovery_ = false;
        if (auto s = sealSnapshot(); !s.ok())
            return s;
        if (auto s = writeFreshWal(); !s.ok())
            return s;
        commitsSinceCheckpoint_ = 0;
        ++stats_.recoveryRekeys;
    }
    return okStatus();
}

Status
SealedStore::requireAlive() const
{
    if (dead_) {
        return Error(Errc::failedPrecondition,
                     "store is dead: " + deadReason_);
    }
    return okStatus();
}

Status
SealedStore::die(const char *what)
{
    return fatal(Error(Errc::failedPrecondition,
                       std::string("store killed at sync point: ") + what),
                 what);
}

/** The one kill path, for injected crashes, the migration hand-off and
 *  a durability step that failed partway through a protocol a retry
 *  would corrupt (torn bytes left in the log, duplicate commit epoch,
 *  double counter advance): kill this instance, close the WAL and the
 *  chip-NV file so nothing more reaches them, and return @p cause.
 *  Reopening repairs via recovery instead. */
Status
SealedStore::fatal(Status cause, const char *what)
{
    dead_ = true;
    deadReason_ = what;
    wal_.close();
    nvFile_.close();
    return cause;
}

bool
SealedStore::observe(SyncPoint point)
{
    if (config_.observer == nullptr)
        return false;
    return config_.observer->onSyncPoint(point, epoch_);
}

Status
SealedStore::journalMutation(bool is_remove, const std::string &key,
                             const Bytes &value)
{
    if (auto s = requireAlive(); !s.ok())
        return s;
    // Refuse before anything is written: a record whose payload the
    // replay scanner would call oversized must never reach the log (it
    // would commit fine, then read back as a torn tail and turn the
    // epoch/counter reconciliation into a permanent rollback refusal).
    const std::size_t encoded =
        encodedMutationBytes(key.size(), value.size());
    if (encoded > maxWalPayload) {
        return Error(Errc::invalidArgument,
                     "mutation too large: key + value encode to " +
                         std::to_string(encoded) +
                         " payload bytes, over the " +
                         std::to_string(maxWalPayload) +
                         "-byte WAL record bound");
    }
    Mutation m;
    m.isRemove = is_remove;
    m.key = key;
    m.value = value;
    m.seq = nextSeq_;
    Bytes framed;
    appendRecord(framed,
                 is_remove ? RecordType::remove : RecordType::put,
                 encodeMutation(logKey_, m));
    // A failed append may leave a torn prefix of the record in the
    // log. Nothing may land behind it: replay stops at the torn bytes,
    // so a later commit would be dropped while the hardware counter
    // advanced for it -- a permanent rollback refusal.
    if (auto s = wal_.append(framed); !s.ok())
        return fatal(std::move(s), "WAL append failed");
    ++stats_.walRecordsAppended;
    stats_.walBytesAppended += framed.size();
    lastJournaledSeq_ = nextSeq_;
    ++nextSeq_;
    ++pending_;
    if (is_remove)
        map_.erase(key);
    else
        map_[key] = value;
    if (observe(SyncPoint::walAppended))
        return die("walAppended");
    return okStatus();
}

Status
SealedStore::put(const std::string &key, const Bytes &value)
{
    std::lock_guard<std::mutex> lock(mu_);
    return journalMutation(false, key, value);
}

Status
SealedStore::remove(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.find(key) == map_.end())
        return Error(Errc::notFound, "no such key: " + key);
    return journalMutation(true, key, {});
}

Status
SealedStore::commit()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto s = requireAlive(); !s.ok())
        return s;
    if (pending_ == 0)
        return okStatus();

    // From the first byte of the commit record onward, every failure
    // is fatal for this instance: the record may already be (or later
    // become) durable, so a retried commit() would append a second
    // record with the same epoch -- breaking the epoch chain on the
    // next open -- and a second counter advance would read as a
    // permanent spurious rollback. Recovery over a reopen repairs all
    // of these windows; a live retry cannot.
    const CommitMark mark{epoch_ + 1, lastJournaledSeq_};
    Bytes framed;
    appendRecord(framed, RecordType::commit,
                 encodeCommit(logKey_, mark));
    if (auto s = wal_.append(framed); !s.ok())
        return fatal(std::move(s), "commit record write failed");
    ++stats_.walRecordsAppended;
    stats_.walBytesAppended += framed.size();
    if (observe(SyncPoint::commitAppended))
        return die("commitAppended");
    if (auto s = wal_.sync(); !s.ok())
        return fatal(std::move(s), "commit fsync failed");
    ++stats_.fsyncs;
    if (observe(SyncPoint::commitSynced))
        return die("commitSynced");

    auto advanced = idMachine_.tpm().counterIncrement(counterHandle_);
    if (!advanced) {
        return fatal(advanced.error(),
                     "freshness counter increment failed mid-commit");
    }
    if (observe(SyncPoint::counterAdvanced))
        return die("counterAdvanced");
    if (auto s = persistChipNv(); !s.ok())
        return fatal(std::move(s), "chip NV write failed mid-commit");
    if (observe(SyncPoint::nvWritten))
        return die("nvWritten");

    epoch_ = mark.epoch;
    pending_ = 0;
    ++stats_.commits;
    ++commitsSinceCheckpoint_;

    if (config_.snapshotEvery > 0 &&
        commitsSinceCheckpoint_ >= config_.snapshotEvery) {
        return checkpointLocked();
    }
    return okStatus();
}

Status
SealedStore::checkpoint()
{
    std::lock_guard<std::mutex> lock(mu_);
    return checkpointLocked();
}

Status
SealedStore::checkpointLocked()
{
    if (auto s = requireAlive(); !s.ok())
        return s;
    if (pending_ != 0) {
        return Error(Errc::failedPrecondition,
                     "checkpoint with uncommitted mutations; commit "
                     "first");
    }
    if (auto s = sealSnapshot(); !s.ok())
        return s;
    if (observe(SyncPoint::snapshotReplaced))
        return die("snapshotReplaced");
    // writeFreshWal has already chained logKey_ forward, and a failure
    // after its rename leaves wal_ naming the replaced file: either way
    // the next append would be lost or unreadable. Reopen recovers from
    // the new snapshot and whichever log is on disk.
    if (auto s = writeFreshWal(); !s.ok())
        return fatal(std::move(s), "WAL rewrite failed mid-checkpoint");
    if (observe(SyncPoint::walRewritten))
        return die("walRewritten");
    commitsSinceCheckpoint_ = 0;
    ++stats_.checkpoints;
    return okStatus();
}

Result<Bytes>
SealedStore::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto s = requireAlive(); !s.ok())
        return s.error();
    auto it = map_.find(key);
    if (it == map_.end())
        return Error(Errc::notFound, "no such key: " + key);
    return it->second;
}

bool
SealedStore::has(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.find(key) != map_.end();
}

std::size_t
SealedStore::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::vector<std::string>
SealedStore::keys() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto &[key, value] : map_)
        out.push_back(key);
    return out;
}

Result<Bytes>
SealedStore::loadSealedState(const std::string &name)
{
    return get(name);
}

Status
SealedStore::storeSealedState(const std::string &name,
                              const Bytes &sealed)
{
    if (auto s = put(name, sealed); !s.ok())
        return s;
    return commit();
}

bool
SealedStore::hasSealedState(const std::string &name) const
{
    return has(name);
}

std::uint64_t
SealedStore::epoch() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
}

std::size_t
SealedStore::pendingMutations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
}

Bytes
SealedStore::stateDigest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return crypto::Sha256::digestBytes(encodeMapPayload(epoch_));
}

bool
SealedStore::alive() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !dead_;
}

std::size_t
SealedStore::syncedWalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return wal_.syncedBytes();
}

Bytes
SealedStore::srkPublicEncoded() const
{
    // Even this logically-const read ticks the identity machine's sim
    // clocks, so it must serialize against put/commit/checkpoint.
    std::lock_guard<std::mutex> lock(mu_);
    return srkPublicEncodedLocked();
}

Bytes
SealedStore::srkPublicEncodedLocked() const
{
    return idMachine_.tpm().srkPublic().encode();
}

Result<sea::Attestation>
SealedStore::attestForMigration(const Bytes &nonce)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto s = requireAlive(); !s.ok())
        return s.error();
    const Bytes bound =
        migrationBoundNonce(nonce, srkPublicEncodedLocked());
    if (!aikCert_) {
        aikCert_ = sea::PrivacyCa::instance().issue(
            idMachine_.tpm().aikPublic(), "mintcb-store");
    }
    return sea::attestLaunch(idMachine_, 0, bound, *aikCert_);
}

Result<Bytes>
SealedStore::exportForMigration(
    const std::function<Result<Bytes>(const Bytes &payload,
                                      std::uint64_t epoch)> &package)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto s = requireAlive(); !s.ok())
        return s.error();
    if (pending_ != 0) {
        return Error(Errc::failedPrecondition,
                     "migration with uncommitted mutations; commit "
                     "first");
    }
    auto bundle = package(encodeMapPayload(epoch_), epoch_);
    if (!bundle)
        return bundle.error(); // refused before anything was advanced

    // Invalidate this replica: advance the chip with no matching
    // commit. Every future open of this directory now sees durable
    // epoch < hardware counter -- the typed rollback rejection -- so
    // at most one live replica of the state exists after migration.
    auto advanced = idMachine_.tpm().counterIncrement(counterHandle_);
    if (!advanced)
        return advanced.error();
    if (auto s = persistChipNv(); !s.ok()) {
        // The counter already advanced: a retry would advance it again
        // and leave the directory permanently behind the chip. Same
        // rule as mid-commit failures -- this instance is done.
        return fatal(std::move(s),
                     "chip NV write failed mid-invalidation")
            .error();
    }
    ++stats_.migrationsOut;
    fatal(okStatus(), "state migrated away");
    return bundle;
}

Status
SealedStore::adoptMigrated(const Bytes &snapshot_payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto s = requireAlive(); !s.ok())
        return s;
    if (epoch_ != 0 || !map_.empty() || pending_ != 0) {
        return Error(Errc::failedPrecondition,
                     "migration target store must be empty");
    }
    std::uint64_t sourceEpoch = 0;
    std::map<std::string, Bytes> imported;
    {
        // Decode into a scratch map first so a malformed bundle
        // leaves the store untouched.
        std::map<std::string, Bytes> keep;
        keep.swap(map_);
        auto s = applyMapPayload(snapshot_payload, &sourceEpoch);
        imported.swap(map_);
        map_.swap(keep);
        if (!s.ok())
            return s;
    }
    for (const auto &[key, value] : imported) {
        if (auto s = journalMutation(false, key, value); !s.ok())
            return s;
    }
    ++stats_.migrationsIn;
    return okStatus();
}

} // namespace mintcb::store
