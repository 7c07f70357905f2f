/**
 * @file
 * Pieces of Application Logic.
 *
 * "We focus on an execution model designed to execute small blocks of
 * code with the smallest possible TCB. We term each block of code a
 * Piece of Application Logic (PAL)" (Section 3.1).
 *
 * A mintcb PAL couples an *identity* (the SLB byte image that gets
 * measured into PCR 17) with a *behavior* (a C++ callback that performs
 * the security-sensitive work against the simulated platform, charging
 * compute time to the executing core).
 */

#ifndef MINTCB_SEA_PAL_HH
#define MINTCB_SEA_PAL_HH

#include <functional>
#include <memory>
#include <string>

#include "common/result.hh"
#include "common/simtime.hh"
#include "common/types.hh"
#include "machine/machine.hh"
#include "tpm/tpm.hh"

namespace mintcb::sea
{

class PalContext;

/** The PAL's application-specific entry function. */
using PalBody = std::function<Status(PalContext &)>;

/** A PAL: measured code identity plus modeled behavior. The identity
 *  (name, SLB image, measurement) is built once by fromLogic and shared,
 *  immutable, by every copy, so passing a Pal down never rebuilds it
 *  and threads may read it concurrently. */
class Pal
{
  public:
    /**
     * Create a PAL named @p name whose SLB image is @p code_bytes of
     * deterministic content derived from the name (so equal names =>
     * equal measurements, and any code change => a new identity).
     */
    static Pal fromLogic(std::string name, std::size_t code_bytes,
                         PalBody body);

    const std::string &name() const { return identity_->name; }
    const PalBody &body() const { return body_; }

    /** Total SLB image size (code + header). */
    std::size_t slbBytes() const { return identity_->slbImage.size(); }

    /** The SLB image that will be measured. */
    const Bytes &slbImage() const { return identity_->slbImage; }

    /** SHA-1 of the SLB image: the measurement a verifier whitelists. */
    const Bytes &measurement() const { return identity_->measurement; }

    /** Expected PCR 17 value after a genuine late launch of this PAL. */
    Bytes expectedPcr17() const;

  private:
    struct Identity
    {
        std::string name;
        Bytes slbImage;
        Bytes measurement;
    };

    Pal(std::shared_ptr<const Identity> identity, PalBody body)
        : identity_(std::move(identity)), body_(std::move(body))
    {
    }

    std::shared_ptr<const Identity> identity_;
    PalBody body_;
};

/**
 * Everything a running PAL may touch. Handed to the PalBody by the
 * driver after the late launch completes; mediates TPM access and time
 * accounting on the executing core.
 */
class PalContext
{
  public:
    PalContext(machine::Machine &machine, CpuId cpu, Bytes input);

    /** Input parameters passed by the untrusted OS. */
    const Bytes &input() const { return input_; }

    /** Output returned to the untrusted OS on exit. */
    void setOutput(Bytes out) { output_ = std::move(out); }
    const Bytes &output() const { return output_; }

    /** The core this PAL occupies. */
    machine::Cpu &cpu() { return machine_.cpu(cpu_); }
    CpuId cpuId() const { return cpu_; }

    /** Charge @p d of application-specific computation. */
    void compute(Duration d) { cpu().advance(d); }

    /** The platform TPM, charging this core's clock. */
    tpm::Tpm &tpm() { return machine_.tpmAs(cpu_); }

    /** The machine (for memory access through the controller). */
    machine::Machine &machine() { return machine_; }

    /** PCRs that define this PAL's identity on this platform: {17} on
     *  AMD, {17, 18} on Intel (Section 3.3). */
    std::vector<std::size_t> identityPcrs() const;

    /** Seal @p state so only this PAL (same PCR values) can unseal it. */
    Result<tpm::SealedBlob> sealState(const Bytes &state);

    /** Unseal state sealed by a previous run of this PAL. */
    Result<Bytes> unsealState(const tpm::SealedBlob &blob);

    /** @name Phase accounting for the Figure 2 breakdown. @{ */
    Duration sealTime() const { return sealTime_; }
    Duration unsealTime() const { return unsealTime_; }
    /** @} */

  private:
    machine::Machine &machine_;
    CpuId cpu_;
    Bytes input_;
    Bytes output_;
    Duration sealTime_;
    Duration unsealTime_;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_PAL_HH
