/**
 * @file
 * sePCR-quote verifier implementation.
 */

#include "rec/verifier.hh"

#include "crypto/sha1.hh"
#include "tpm/pcr.hh"

namespace mintcb::rec
{

void
SeVerifier::trustPalImage(std::string name, const Bytes &pal_image)
{
    trustMeasurement(std::move(name),
                     crypto::Sha1::digestBytes(pal_image));
}

void
SeVerifier::trustMeasurement(std::string name, const Bytes &measurement)
{
    whitelist_.push_back(
        {std::move(name), measurement,
         tpm::extendPcr(Bytes(crypto::sha1DigestSize, 0x00),
                        measurement)});
}

Result<VerifiedSePcrLaunch>
SeVerifier::verify(const tpm::TpmQuote &quote,
                   const crypto::RsaPublicKey &aik,
                   const Bytes &expected_nonce) const
{
    if (auto s = tpm::verifyQuote(aik, quote, expected_nonce);
        !s.ok()) {
        return Error(s.error().code,
                     "sePCR quote refused: " + s.error().message);
    }
    // Locate the first sePCR-namespaced entry.
    const Bytes *value = nullptr;
    for (std::size_t i = 0; i < quote.selection.size(); ++i) {
        if (quote.selection[i] >= tpm::pcrCount) {
            value = &quote.values[i];
            break;
        }
    }
    if (!value) {
        return Error(Errc::invalidArgument,
                     "quote does not cover any sePCR");
    }

    // A SKILLed PAL's chain ends in the kill marker; no whitelist entry
    // can match it, but name the condition for the caller.
    for (const Entry &e : whitelist_) {
        if (*value ==
            tpm::extendPcr(e.expectedValue, SePcrTpm::killMarker())) {
            return Error(Errc::failedPrecondition,
                         "PAL \"" + e.name +
                             "\" was killed by SKILL before completing");
        }
    }

    for (const Entry &e : whitelist_) {
        if (*value == e.expectedValue)
            return VerifiedSePcrLaunch{e.name, e.measurement};
    }
    return Error(Errc::permissionDenied,
                 "sePCR identity matches no trusted PAL");
}

} // namespace mintcb::rec
