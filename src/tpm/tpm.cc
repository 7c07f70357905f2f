/**
 * @file
 * TPM front-end implementation.
 */

#include "tpm/tpm.hh"

#include <iterator>
#include <string>

#include "common/bytebuf.hh"
#include "crypto/keycache.hh"
#include "crypto/sha1.hh"

namespace mintcb::tpm
{

Bytes
TpmQuote::signedPayload() const
{
    ByteWriter w;
    w.str("QUOT");
    w.u32(static_cast<std::uint32_t>(selection.size()));
    for (std::size_t i = 0; i < selection.size(); ++i) {
        w.u32(static_cast<std::uint32_t>(selection[i]));
        w.lengthPrefixed(values[i]);
    }
    w.lengthPrefixed(nonce);
    return w.take();
}

Status
verifyQuote(const crypto::RsaPublicKey &aik, const TpmQuote &quote,
            const Bytes &expected_nonce)
{
    if (quote.nonce != expected_nonce) {
        return Error(Errc::integrityFailure,
                     "quote nonce does not match the challenge "
                     "(stale or replayed quote)");
    }
    if (quote.selection.size() != quote.values.size()) {
        return Error(Errc::invalidArgument,
                     "malformed quote: " +
                         std::to_string(quote.selection.size()) +
                         " PCR indices but " +
                         std::to_string(quote.values.size()) +
                         " values");
    }
    if (!crypto::rsaVerifySha1(aik, quote.signedPayload(),
                               quote.signature)) {
        return Error(Errc::integrityFailure,
                     "quote signature does not verify under the "
                     "presented AIK");
    }
    return okStatus();
}

Tpm::Tpm(TpmVendor vendor, std::uint64_t seed)
    : profile_(TpmTimingProfile::forVendor(vendor)),
      srk_(crypto::cachedKey("tpm-srk-" + std::to_string(seed),
                             crypto::tpmKeyBits)),
      aik_(crypto::cachedKey("tpm-aik-" + std::to_string(seed),
                             crypto::tpmKeyBits)),
      rng_(0x74706d00 ^ seed)
{
}

void
Tpm::reboot()
{
    busyUntil_ = TimePoint();
    pcrs_.reboot();
    hashSequenceOpen_ = false;
    hashSeq_.reset();
    lockHolder_.reset();
    transportTickets_.clear();
}

void
Tpm::registerTransportTicket(const Bytes &key_digest)
{
    if (!hasTransportTicket(key_digest))
        transportTickets_.push_back(TransportTicket{key_digest, 0});
}

bool
Tpm::hasTransportTicket(const Bytes &key_digest) const
{
    for (const TransportTicket &t : transportTickets_) {
        if (t.keyDigest == key_digest)
            return true;
    }
    return false;
}

Result<std::uint64_t>
Tpm::advanceTransportTicketEpoch(const Bytes &key_digest)
{
    for (TransportTicket &t : transportTickets_) {
        if (t.keyDigest == key_digest)
            return ++t.epoch;
    }
    return Error(Errc::notFound,
                 "no resumption ticket for this session key");
}

void
Tpm::charge(Duration mean, const char *op)
{
    // The TPM is a single slow chip behind one LPC port: a command from
    // any CPU cannot start until the previous command (possibly issued
    // by a different CPU) completes. Serializing in virtual time models
    // the hardware-lock arbitration of Section 5.4.5.
    Timeline *clock = clock_ ? clock_ : &ownClock_;
    const TimePoint issued = clock->now();
    clock->syncTo(busyUntil_);
    const TimePoint start = clock->now();
    clock->advance(profile_.sample(mean, rng_));
    busyUntil_ = clock->now();
    for (TpmCommandObserver *obs : observers_)
        obs->onCommand(op ? op : "tpm", issued, start, busyUntil_);
}

Status
Tpm::requireHardware(Locality locality, const char *op) const
{
    if (locality != Locality::hardware) {
        ++stats_.deniedCommands;
        return Error(Errc::permissionDenied,
                     std::string(op) +
                         " requires the hardware locality; software "
                         "cannot invoke it");
    }
    return okStatus();
}

Result<PcrValue>
Tpm::pcrRead(std::size_t index)
{
    ++stats_.reads;
    charge(profile_.pcrRead, "tpm:pcr_read");
    return pcrs_.read(index);
}

Status
Tpm::pcrExtend(std::size_t index, const Bytes &digest)
{
    ++stats_.extends;
    charge(profile_.extend, "tpm:extend");
    return pcrs_.extend(index, digest);
}

Result<Bytes>
Tpm::getRandom(std::size_t bytes)
{
    ++stats_.getRandoms;
    charge(profile_.getRandom(bytes), "tpm:get_random");
    return rng_.bytes(bytes);
}

Result<SealedBlob>
Tpm::seal(const Bytes &payload, const std::vector<std::size_t> &selection)
{
    SealPolicy policy;
    for (std::size_t index : selection) {
        auto value = pcrs_.read(index);
        if (!value)
            return value.error();
        policy.push_back({static_cast<std::uint32_t>(index), *value});
    }
    return sealToPolicy(payload, policy);
}

Result<SealedBlob>
Tpm::sealToPolicy(const Bytes &payload, const SealPolicy &policy)
{
    for (const PcrBinding &b : policy) {
        if (!PcrBank::valid(b.index))
            return Error(Errc::invalidArgument, "policy PCR out of range");
        if (b.digestAtRelease.size() != crypto::sha1DigestSize) {
            return Error(Errc::invalidArgument,
                         "policy digest must be 20 bytes");
        }
    }
    ++stats_.seals;
    charge(profile_.seal(payload.size()), "tpm:seal");
    return sealBlob(srk_.pub, rng_, payload, policy);
}

Result<Bytes>
Tpm::unseal(const SealedBlob &blob)
{
    ++stats_.unseals;
    charge(profile_.unseal, "tpm:unseal");
    if (blob.sePcrBound) {
        return Error(Errc::failedPrecondition,
                     "blob is sePCR-bound; a v1.2 TPM cannot unseal it");
    }
    // Policy check: every bound PCR must currently hold the sealed value.
    for (const PcrBinding &b : blob.policy) {
        auto value = pcrs_.read(b.index);
        if (!value)
            return value.error();
        if (*value != b.digestAtRelease) {
            return Error(Errc::permissionDenied,
                         "wrong PCR: PCR " + std::to_string(b.index) +
                             " does not match the sealed policy");
        }
    }
    return unsealBlob(srk_, blob);
}

Result<Bytes>
Tpm::unsealRaw(const SealedBlob &blob) const
{
    return unsealBlob(srk_, blob);
}

Bytes
Tpm::aikSign(const Bytes &payload) const
{
    return crypto::rsaSignSha1(aik_, payload);
}

Result<TpmQuote>
Tpm::quote(const Bytes &nonce, const std::vector<std::size_t> &selection)
{
    ++stats_.quotes;
    charge(profile_.quote, "tpm:quote");
    TpmQuote q;
    q.selection = selection;
    for (std::size_t index : selection) {
        auto value = pcrs_.read(index);
        if (!value)
            return value.error();
        q.values.push_back(*value);
    }
    q.nonce = nonce;
    q.signature = crypto::rsaSignSha1(aik_, q.signedPayload());
    return q;
}

Result<std::uint32_t>
Tpm::counterCreate()
{
    // Real chips cap the counter count; four matches common parts.
    if (counters_.size() >= 4) {
        return Error(Errc::resourceExhausted,
                     "TPM monotonic counter slots exhausted");
    }
    charge(profile_.extend, "tpm:nv_write"); // NV-write-class cost
    counters_.push_back(0);
    return static_cast<std::uint32_t>(counters_.size() - 1);
}

Result<std::uint64_t>
Tpm::counterIncrement(std::uint32_t handle)
{
    if (handle >= counters_.size())
        return Error(Errc::notFound, "no such monotonic counter");
    charge(profile_.extend, "tpm:extend");
    return ++counters_[handle];
}

Result<std::uint64_t>
Tpm::counterRead(std::uint32_t handle) const
{
    if (handle >= counters_.size())
        return Error(Errc::notFound, "no such monotonic counter");
    return counters_[handle];
}

namespace
{

/** Shared PCR-gate check for NV accesses. */
Status
checkNvGate(const PcrBank &pcrs, const SealPolicy &policy)
{
    for (const PcrBinding &b : policy) {
        auto value = pcrs.read(b.index);
        if (!value)
            return value.error();
        if (*value != b.digestAtRelease) {
            return Error(Errc::permissionDenied,
                         "NV space gated on PCR " +
                             std::to_string(b.index) +
                             ", which does not match");
        }
    }
    return okStatus();
}

} // namespace

Result<std::uint32_t>
Tpm::nvDefine(std::size_t bytes,
              const std::vector<std::size_t> &pcr_selection)
{
    if (bytes == 0 || bytes > 4096) {
        return Error(Errc::invalidArgument,
                     "NV spaces are 1-4096 bytes on this chip");
    }
    if (nvSpaces_.size() >= 8) {
        return Error(Errc::resourceExhausted,
                     "NV index slots exhausted");
    }
    NvSpace space;
    space.size = bytes;
    for (std::size_t index : pcr_selection) {
        auto value = pcrs_.read(index);
        if (!value)
            return value.error();
        space.policy.push_back(
            {static_cast<std::uint32_t>(index), *value});
    }
    charge(profile_.extend, "tpm:nv_write"); // NV-write-class cost
    nvSpaces_.push_back(std::move(space));
    return static_cast<std::uint32_t>(nvSpaces_.size() - 1);
}

Status
Tpm::nvWrite(std::uint32_t index, const Bytes &data)
{
    if (index >= nvSpaces_.size())
        return Error(Errc::notFound, "no such NV space");
    NvSpace &space = nvSpaces_[index];
    if (data.size() > space.size)
        return Error(Errc::invalidArgument, "write exceeds NV space");
    if (auto s = checkNvGate(pcrs_, space.policy); !s.ok())
        return s;
    charge(profile_.extend, "tpm:extend");
    space.data = data;
    return okStatus();
}

Bytes
Tpm::exportNvState() const
{
    ByteWriter w;
    w.u32(nvStateMagic);
    w.u16(1); // layout version
    w.u32(static_cast<std::uint32_t>(counters_.size()));
    for (std::uint64_t value : counters_)
        w.u64(value);
    w.u32(static_cast<std::uint32_t>(nvSpaces_.size()));
    for (const NvSpace &space : nvSpaces_) {
        w.u64(space.size);
        w.u32(static_cast<std::uint32_t>(space.policy.size()));
        for (const PcrBinding &b : space.policy) {
            w.u32(b.index);
            w.lengthPrefixed(b.digestAtRelease);
        }
        w.lengthPrefixed(space.data);
    }
    return w.take();
}

Status
Tpm::importNvState(const Bytes &wire)
{
    if (!counters_.empty() || !nvSpaces_.empty()) {
        return Error(Errc::failedPrecondition,
                     "chip already holds NV state; import is a "
                     "cold-boot operation");
    }
    std::vector<std::uint64_t> counters;
    std::vector<NvSpace> spaces;
    if (auto s = decodeNvState(wire, counters, spaces); !s.ok())
        return s;
    counters_ = std::move(counters);
    nvSpaces_ = std::move(spaces);
    return okStatus();
}

Result<std::vector<std::uint64_t>>
Tpm::nvStateCounters(const Bytes &wire)
{
    std::vector<std::uint64_t> counters;
    std::vector<NvSpace> spaces;
    if (auto s = decodeNvState(wire, counters, spaces); !s.ok())
        return s.error();
    return counters;
}

Status
Tpm::decodeNvState(const Bytes &wire, std::vector<std::uint64_t> &counters,
                   std::vector<NvSpace> &spaces)
{
    ByteReader r(wire);
    const std::uint32_t magic = r.getU32();
    if (r.ok() && magic != nvStateMagic)
        return Error(Errc::integrityFailure, "not a TNV1 NV image");
    const std::uint16_t version = r.getU16();
    if (r.ok() && version != 1)
        return Error(Errc::invalidArgument, "unknown NV image version");

    const std::uint32_t counterCount = r.getU32();
    if (r.ok() && counterCount > 4)
        return Error(Errc::integrityFailure, "NV image counter overflow");
    for (std::uint32_t i = 0; i < counterCount; ++i) {
        const std::uint64_t value = r.getU64();
        if (!r.ok())
            break;
        counters.push_back(value);
    }

    const std::uint32_t spaceCount = r.getU32();
    if (r.ok() && spaceCount > 8)
        return Error(Errc::integrityFailure, "NV image space overflow");
    for (std::uint32_t i = 0; i < spaceCount; ++i) {
        NvSpace space;
        space.size = static_cast<std::size_t>(r.getU64());
        const std::uint32_t policyCount = r.getU32();
        for (std::uint32_t j = 0; j < policyCount; ++j) {
            PcrBinding b;
            b.index = r.getU32();
            b.digestAtRelease = r.getLengthPrefixed();
            if (!r.ok())
                break;
            space.policy.push_back(std::move(b));
        }
        space.data = r.getLengthPrefixed();
        if (!r.ok())
            break;
        if (space.data.size() > space.size) {
            return Error(Errc::integrityFailure,
                         "NV image space data exceeds its size");
        }
        spaces.push_back(std::move(space));
    }
    return r.finish(Errc::integrityFailure, "trailing NV image bytes");
}

Result<Bytes>
Tpm::nvRead(std::uint32_t index)
{
    if (index >= nvSpaces_.size())
        return Error(Errc::notFound, "no such NV space");
    NvSpace &space = nvSpaces_[index];
    if (auto s = checkNvGate(pcrs_, space.policy); !s.ok())
        return s.error();
    charge(profile_.pcrRead, "tpm:pcr_read");
    return space.data;
}

Status
Tpm::hashStart(Locality locality)
{
    if (auto s = requireHardware(locality, "TPM_HASH_START"); !s.ok())
        return s;
    ++stats_.hashSequences;
    charge(profile_.hashStartStop / 2, "tpm:hash_seq");
    hashSequenceOpen_ = true;
    hashSeq_.reset();
    // The late launch resets the dynamic PCRs to zero (Section 2.2.1).
    for (std::size_t i = firstDynamicPcr; i < pcrCount; ++i)
        pcrs_.resetDynamic(i);
    return okStatus();
}

Status
Tpm::hashData(const Bytes &chunk, Locality locality)
{
    if (auto s = requireHardware(locality, "TPM_HASH_DATA"); !s.ok())
        return s;
    if (!hashSequenceOpen_) {
        return Error(Errc::failedPrecondition,
                     "TPM_HASH_DATA outside a hash sequence");
    }
    // Long wait cycles on the LPC bus: the dominant SKINIT cost on the
    // HP dc5750 (Section 4.3.1).
    charge(profile_.hashWaitPerByte * static_cast<double>(chunk.size()),
           "tpm:hash_data");
    hashSeq_.update(chunk);
    return okStatus();
}

Status
Tpm::hashEnd(Locality locality)
{
    if (auto s = requireHardware(locality, "TPM_HASH_END"); !s.ok())
        return s;
    if (!hashSequenceOpen_) {
        return Error(Errc::failedPrecondition,
                     "TPM_HASH_END outside a hash sequence");
    }
    charge(profile_.hashStartStop / 2, "tpm:hash_seq");
    const auto digest = hashSeq_.finish();
    const Bytes measurement(digest.begin(), digest.end());
    hashSequenceOpen_ = false;
    hashSeq_.reset();
    return pcrs_.extend(dynamicLaunchPcr, measurement);
}

bool
Tpm::tryLock(CpuId cpu)
{
    if (lockHolder_ && *lockHolder_ != cpu)
        return false;
    lockHolder_ = cpu;
    return true;
}

Status
Tpm::unlock(CpuId cpu)
{
    if (!lockHolder_ || *lockHolder_ != cpu) {
        return Error(Errc::failedPrecondition,
                     "TPM lock not held by this CPU");
    }
    lockHolder_.reset();
    return okStatus();
}

} // namespace mintcb::tpm

namespace mintcb
{

namespace
{

using TpmField = CounterField<TpmStats>;

constexpr TpmField tpmFields[] = {
    {"mintcb_tpm_extends_total", "TPM_Extend commands", "extend",
     &TpmStats::extends},
    {"mintcb_tpm_reads_total", "TPM_PCRRead commands", "read",
     &TpmStats::reads},
    {"mintcb_tpm_seals_total", "TPM_Seal commands", "seal",
     &TpmStats::seals},
    {"mintcb_tpm_unseals_total", "TPM_Unseal commands", "unseal",
     &TpmStats::unseals},
    {"mintcb_tpm_quotes_total", "TPM_Quote commands", "quote",
     &TpmStats::quotes},
    {"mintcb_tpm_get_randoms_total", "TPM_GetRandom commands", "getrandom",
     &TpmStats::getRandoms},
    {"mintcb_tpm_hash_sequences_total", "Late-launch measurement sequences",
     "hash_seq", &TpmStats::hashSequences},
    {"mintcb_tpm_denied_commands_total", "Locality/lock command refusals",
     "denied", &TpmStats::deniedCommands},
};
static_assert(sizeof(TpmStats) ==
                  std::size(tpmFields) * sizeof(std::uint64_t),
              "every TpmStats field needs a row in tpmFields");

} // namespace

std::span<const TpmField>
TpmStats::fields()
{
    return tpmFields;
}

} // namespace mintcb
