/**
 * @file
 * sePCR set implementation.
 */

#include "rec/sepcr_set.hh"

#include "crypto/sha1.hh"

namespace mintcb::rec
{

Result<SePcrSetHandle>
SePcrSets::allocateAndMeasure(std::size_t slots, const Bytes &pal_image,
                              tpm::Locality locality)
{
    if (slots == 0)
        return Error(Errc::invalidArgument, "empty sePCR set");
    if (bank_.freeCount() < slots) {
        return Error(Errc::resourceExhausted,
                     "not enough free sePCRs for the requested set");
    }

    SePcrSetHandle set;
    // Slot 0 carries the launch measurement.
    auto first = bank_.allocateAndMeasure(pal_image, locality);
    if (!first)
        return first.error();
    set.slots.push_back(*first);
    // Each extra slot is reset and extended with the SHA-1 of its
    // 1-byte slot index, so the set's values are distinct and none can
    // pass for the launch measurement.
    for (std::size_t i = 1; i < slots; ++i) {
        auto h = bank_.allocateAndMeasure(
            Bytes{static_cast<std::uint8_t>(i)}, locality);
        if (!h) {
            // Cannot happen after the freeCount check; unwind anyway.
            for (SePcrHandle held : set.slots)
                bank_.kill(held, tpm::Locality::hardware);
            return h.error();
        }
        set.slots.push_back(*h);
    }
    return set;
}

Status
SePcrSets::extend(const SePcrSetHandle &set, std::size_t slot,
                  const Bytes &digest)
{
    if (slot >= set.size())
        return Error(Errc::invalidArgument, "set slot out of range");
    const SePcrHandle h = set.slot(slot);
    return bank_.extend(h, digest, h);
}

Status
SePcrSets::transitionToQuote(const SePcrSetHandle &set,
                             tpm::Locality locality)
{
    for (SePcrHandle h : set.slots) {
        if (auto s = bank_.transitionToQuote(h, locality); !s.ok())
            return s;
    }
    return okStatus();
}

Result<tpm::TpmQuote>
SePcrSets::quoteSubset(const SePcrSetHandle &set,
                       const std::vector<std::size_t> &slots,
                       const Bytes &nonce)
{
    if (slots.empty())
        return Error(Errc::invalidArgument, "empty quote subset");
    tpm::TpmQuote q;
    for (std::size_t slot : slots) {
        if (slot >= set.size())
            return Error(Errc::invalidArgument, "set slot out of range");
        const SePcrHandle h = set.slot(slot);
        if (bank_.state(h) != SePcrState::quote) {
            return Error(Errc::failedPrecondition,
                         "sePCR set slot not in the Quote state");
        }
        auto value = bank_.value(h);
        if (!value)
            return value.error();
        q.selection.push_back(tpm::pcrCount + h);
        q.values.push_back(*value);
    }
    q.nonce = nonce;
    bank_.base().charge(bank_.base().profile().quote, "sepcr:quote");
    q.signature = bank_.base().aikSign(q.signedPayload());
    return q;
}

Status
SePcrSets::release(const SePcrSetHandle &set)
{
    for (SePcrHandle h : set.slots) {
        if (auto s = bank_.release(h); !s.ok())
            return s;
    }
    return okStatus();
}

Status
SePcrSets::kill(const SePcrSetHandle &set, tpm::Locality locality)
{
    for (SePcrHandle h : set.slots) {
        if (auto s = bank_.kill(h, locality); !s.ok())
            return s;
    }
    return okStatus();
}

} // namespace mintcb::rec
