/**
 * @file
 * sePCR bank implementation.
 */

#include "rec/sepcr.hh"

#include <string>

#include "crypto/sha1.hh"
#include "tpm/blob.hh"
#include "tpm/pcr.hh"

namespace mintcb::rec
{

const char *
sePcrStateName(SePcrState s)
{
    switch (s) {
      case SePcrState::free:
        return "Free";
      case SePcrState::exclusive:
        return "Exclusive";
      case SePcrState::quote:
        return "Quote";
    }
    return "unknown";
}

SePcrTpm::SePcrTpm(tpm::Tpm &base, std::size_t count) : base_(base)
{
    sePcrs_.resize(count);
    for (SePcr &p : sePcrs_)
        p.value.assign(crypto::sha1DigestSize, 0x00);
}

std::size_t
SePcrTpm::freeCount() const
{
    std::size_t n = 0;
    for (const SePcr &p : sePcrs_)
        n += p.state == SePcrState::free;
    return n;
}

SePcrState
SePcrTpm::state(SePcrHandle h) const
{
    assert(h < sePcrs_.size());
    return sePcrs_[h].state;
}

Result<Bytes>
SePcrTpm::value(SePcrHandle h) const
{
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    return sePcrs_[h].value;
}

Result<SePcrHandle>
SePcrTpm::allocateAndMeasure(const Bytes &pal_image,
                             tpm::Locality locality)
{
    if (locality != tpm::Locality::hardware) {
        return Error(Errc::permissionDenied,
                     "sePCR allocation is a hardware (SLAUNCH) operation");
    }
    for (SePcrHandle h = 0; h < sePcrs_.size(); ++h) {
        if (sePcrs_[h].state != SePcrState::free)
            continue;
        // Reset to zero, then extend with the PAL measurement -- the
        // same identity construction as PCR 17 after SKINIT.
        SePcr &p = sePcrs_[h];
        p.state = SePcrState::exclusive;
        p.value.assign(crypto::sha1DigestSize, 0x00);
        p.value = tpm::extendPcr(p.value,
                                 crypto::Sha1::digestBytes(pal_image));
        return h;
    }
    return Error(Errc::resourceExhausted,
                 "no free sePCR: concurrent-PAL limit reached");
}

Status
SePcrTpm::requireExclusiveCaller(SePcrHandle h, SePcrHandle caller,
                                 const char *op) const
{
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    if (sePcrs_[h].state != SePcrState::exclusive) {
        return Error(Errc::failedPrecondition,
                     std::string(op) + " requires an Exclusive sePCR");
    }
    if (h != caller) {
        // "other code attempting any TPM commands with the PAL's sePCR
        // handle will fail" (Section 5.4.2).
        return Error(Errc::permissionDenied,
                     std::string(op) +
                         " refused: sePCR bound to a different PAL");
    }
    return okStatus();
}

Status
SePcrTpm::extend(SePcrHandle h, const Bytes &digest, SePcrHandle caller)
{
    if (auto s = requireExclusiveCaller(h, caller, "sePCR Extend");
        !s.ok()) {
        return s;
    }
    if (digest.size() != crypto::sha1DigestSize) {
        return Error(Errc::invalidArgument,
                     "extend requires a 20-byte digest");
    }
    base_.charge(base_.profile().extend, "sepcr:extend");
    SePcr &p = sePcrs_[h];
    p.value = tpm::extendPcr(p.value, digest);
    return okStatus();
}

Result<tpm::SealedBlob>
SePcrTpm::seal(SePcrHandle h, const Bytes &payload, SePcrHandle caller)
{
    if (auto s = requireExclusiveCaller(h, caller, "sePCR Seal"); !s.ok())
        return s.error();
    base_.charge(base_.profile().seal(payload.size()), "sepcr:seal");
    // Bind to the *value*, not the handle: any sePCR holding this value
    // in a future run may unseal (Section 5.4.4).
    tpm::SealPolicy policy = {{h, sePcrs_[h].value}};
    return tpm::sealBlob(base_.srkPublic(), base_.rng(), payload, policy,
                         /*se_pcr_bound=*/true);
}

Result<Bytes>
SePcrTpm::unseal(SePcrHandle h, const tpm::SealedBlob &blob,
                 SePcrHandle caller)
{
    if (auto s = requireExclusiveCaller(h, caller, "sePCR Unseal");
        !s.ok()) {
        return s.error();
    }
    base_.charge(base_.profile().unseal, "sepcr:unseal");
    if (!blob.sePcrBound) {
        return Error(Errc::failedPrecondition,
                     "blob is bound to ordinary PCRs, not a sePCR");
    }
    for (const tpm::PcrBinding &b : blob.policy) {
        // The handle recorded at seal time is advisory; the value must
        // match the *invoking PAL's* sePCR.
        if (b.digestAtRelease != sePcrs_[h].value) {
            return Error(Errc::permissionDenied,
                         "wrong PCR: sePCR value does not match the "
                         "sealed policy");
        }
    }
    return base_.unsealRaw(blob);
}

Status
SePcrTpm::transitionToQuote(SePcrHandle h, tpm::Locality locality)
{
    if (locality != tpm::Locality::hardware) {
        return Error(Errc::permissionDenied,
                     "Exclusive->Quote is a hardware (SFREE) transition");
    }
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    if (sePcrs_[h].state != SePcrState::exclusive) {
        return Error(Errc::failedPrecondition,
                     "only an Exclusive sePCR can move to Quote");
    }
    sePcrs_[h].state = SePcrState::quote;
    return okStatus();
}

Result<tpm::TpmQuote>
SePcrTpm::quote(SePcrHandle h, const Bytes &nonce)
{
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    if (sePcrs_[h].state != SePcrState::quote) {
        return Error(Errc::failedPrecondition,
                     "sePCR not in the Quote state");
    }
    base_.charge(base_.profile().quote, "sepcr:quote");
    tpm::TpmQuote q;
    // sePCR handles are namespaced above the 24 ordinary PCRs.
    q.selection = {tpm::pcrCount + h};
    q.values = {sePcrs_[h].value};
    q.nonce = nonce;
    q.signature = base_.aikSign(q.signedPayload());
    return q;
}

Status
SePcrTpm::release(SePcrHandle h)
{
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    if (sePcrs_[h].state != SePcrState::quote) {
        return Error(Errc::failedPrecondition,
                     "TPM_SEPCR_Free requires the Quote state");
    }
    sePcrs_[h].state = SePcrState::free;
    sePcrs_[h].value.assign(crypto::sha1DigestSize, 0x00);
    return okStatus();
}

Bytes
SePcrTpm::killMarker()
{
    return crypto::Sha1::digestBytes(
        Bytes{'S', 'K', 'I', 'L', 'L', 'E', 'D'});
}

Status
SePcrTpm::kill(SePcrHandle h, tpm::Locality locality)
{
    if (locality != tpm::Locality::hardware) {
        return Error(Errc::permissionDenied,
                     "SKILL's sePCR teardown is a hardware operation");
    }
    if (h >= sePcrs_.size())
        return Error(Errc::notFound, "sePCR handle out of range");
    if (sePcrs_[h].state == SePcrState::free) {
        return Error(Errc::failedPrecondition,
                     "sePCR already free");
    }
    // Extend the kill marker (so any later quote shows the kill), then
    // transition straight to Free (Section 5.5).
    SePcr &p = sePcrs_[h];
    p.value = tpm::extendPcr(p.value, killMarker());
    p.state = SePcrState::free; // next allocateAndMeasure resets it
    return okStatus();
}

} // namespace mintcb::rec
