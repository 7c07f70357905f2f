/**
 * @file
 * Trusted boot (the pre-SEA baseline the paper improves on).
 *
 * Implements the Sailer-style integrity measurement architecture the
 * paper sketches in Sections 2.1.1 and 7 ("trusted boot, whereby an
 * external party can receive an attestation of all software that has
 * been loaded since boot"): every layer -- BIOS, option ROMs,
 * bootloader, kernel, applications -- is hashed into static PCRs and
 * logged. The contrast with SEA is the point: the trusted-boot verifier
 * must whitelist the *entire* software stack, the SEA verifier exactly
 * one PAL.
 */

#ifndef MINTCB_SEA_MEASUREDBOOT_HH
#define MINTCB_SEA_MEASUREDBOOT_HH

#include <optional>
#include <string>

#include "common/result.hh"
#include "machine/machine.hh"
#include "sea/attestation.hh"
#include "tpm/eventlog.hh"

namespace mintcb::sea
{

/** Conventional static-PCR assignments for boot layers. */
enum class BootLayer : std::uint32_t
{
    bios = 0,
    firmware = 2,       //!< option ROMs / peripheral firmware
    bootloader = 4,
    kernel = 8,
    application = 10,
};

/** Drives a measured boot of a machine and keeps the stored log. */
class MeasuredBoot
{
  public:
    explicit MeasuredBoot(machine::Machine &machine);

    /** Measure-then-load one component: extend its layer PCR, log it. */
    Status loadComponent(BootLayer layer, const std::string &name,
                         const Bytes &image, CpuId cpu = 0);

    /** Run a representative full boot (BIOS -> ... -> init). */
    Status bootTypicalStack(CpuId cpu = 0);

    const tpm::EventLog &log() const { return log_; }

    /** Quote the static PCRs the log covers + produce the evidence.
     *  The AIK certificate is issued on the first attest and kept. */
    Result<Attestation> attest(const Bytes &nonce, CpuId cpu = 0);

    /** PCR indices appearing in the log, sorted. */
    std::vector<std::size_t> coveredPcrs() const;

  private:
    machine::Machine &machine_;
    tpm::EventLog log_;
    std::optional<AikCertificate> aikCert_;
};

/**
 * The trusted-boot verifier: validates AIK chain + quote, replays the
 * log against the quoted static PCRs, and requires EVERY logged
 * measurement to appear on its whitelist -- the unbounded-TCB burden
 * SEA eliminates.
 */
class BootVerifier
{
  public:
    /** Whitelist a known-good component measurement. */
    void trustComponent(const std::string &name, Bytes measurement);

    /** Number of whitelist entries (the verifier's burden). */
    std::size_t whitelistSize() const { return whitelist_.size(); }

    /** Full verification of @p attestation against @p log. */
    Status verify(const Attestation &attestation,
                  const tpm::EventLog &log,
                  const Bytes &expected_nonce) const;

  private:
    std::map<std::string, Bytes> whitelist_;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_MEASUREDBOOT_HH
