/**
 * @file
 * Platform Configuration Register bank (TCG TPM v1.2 semantics).
 *
 * The paper relies on three PCR facts (Section 2.1.3):
 *  - static PCRs (0-16) can only be reset by a platform reboot;
 *  - dynamic PCRs (17-23) reset to -1 (all 0xff) on reboot so a verifier
 *    can distinguish "rebooted" from "dynamically reset";
 *  - only a hardware command issued by the CPU during a late launch can
 *    reset PCR 17 to zero -- software never can.
 */

#ifndef MINTCB_TPM_PCR_HH
#define MINTCB_TPM_PCR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb::tpm
{

/** Number of PCRs in a v1.2 TPM. */
inline constexpr std::size_t pcrCount = 24;

/** First dynamically resettable PCR. */
inline constexpr std::size_t firstDynamicPcr = 17;

/** PCR that records the late-launched code's measurement. */
inline constexpr std::size_t dynamicLaunchPcr = 17;

/** PCR that records the MLE measurement on Intel TXT (extended by the
 *  ACMod rather than by hardware). */
inline constexpr std::size_t intelMlePcr = 18;

/** A PCR value: one SHA-1 digest. */
using PcrValue = Bytes; // always 20 bytes

/**
 * The TPM extend rule v' = SHA-1(v || m) (Section 2.1.1), streamed so
 * v || m is never materialised. Every PCR and sePCR value, and every
 * verifier's expected value, is computed here: one SHA-1 compression
 * for a 20-byte value and a 20-byte measurement.
 */
PcrValue extendPcr(const PcrValue &value, const Bytes &measurement);

/** The 24-register PCR bank with v1.2 reset semantics. */
class PcrBank
{
  public:
    PcrBank() { reboot(); }

    /** Is @p index a valid PCR number? */
    static bool
    valid(std::size_t index)
    {
        return index < pcrCount;
    }

    /** Is @p index one of the dynamic (resettable) PCRs 17-23? */
    static bool
    dynamic(std::size_t index)
    {
        return index >= firstDynamicPcr && index < pcrCount;
    }

    /** Platform reset: static PCRs to 0, dynamic PCRs to -1 (all 0xff). */
    void reboot();

    /** Current value of a PCR. */
    Result<PcrValue> read(std::size_t index) const;

    /** Extend: v <- SHA1(v || measurement). @p measurement must be a
     *  20-byte digest. */
    Status extend(std::size_t index, const Bytes &measurement);

    /**
     * Reset a dynamic PCR to zero. The *caller* (the Tpm front end) is
     * responsible for enforcing that only the hardware late-launch path
     * reaches here; the bank itself only checks that the PCR is dynamic.
     */
    Status resetDynamic(std::size_t index);

    /**
     * Composite digest over a selection of PCRs, as signed by TPM_Quote:
     * SHA1(count || index_0 || value_0 || ... ).
     */
    Result<Bytes> composite(const std::vector<std::size_t> &selection) const;

  private:
    std::array<PcrValue, pcrCount> values_;
};

} // namespace mintcb::tpm

#endif // MINTCB_TPM_PCR_HH
