/**
 * @file
 * One-shot secure function execution on the recommended architecture.
 *
 * The common downstream pattern is "run this one security-sensitive
 * function with a minimal TCB and give me attestable evidence". This
 * wraps the full Section 5.6 life cycle -- allocate SECB, SLAUNCH,
 * run, erase, SFREE, quote, free the sePCR -- into a single call,
 * making the recommended architecture as easy to consume as
 * SeaDriver::execute() is for today's hardware.
 */

#ifndef MINTCB_REC_ONESHOT_HH
#define MINTCB_REC_ONESHOT_HH

#include <functional>

#include "rec/instructions.hh"
#include "rec/scheduler.hh"

namespace mintcb::rec
{

/** Everything a one-shot run returns. */
struct OneShotReport
{
    Bytes output;            //!< whatever the function produced
    Duration total;          //!< latency on the executing CPU
    Duration measurement;    //!< first-launch TPM measurement share
    tpm::TpmQuote quote;     //!< sePCR quote (when requested)
    bool quoted = false;
    Bytes palMeasurement;    //!< SHA-1 of the launched image
};

/** Options for a one-shot run. */
struct OneShotOptions
{
    std::size_t dataPages = 1;    //!< scratch memory
    CpuId cpu = 1;                //!< core to run on
    bool quote = true;            //!< produce attestation evidence
    PhysAddr base = 0x80000;      //!< where to place the image
};

/** The secure function body: gets TPM-via-sePCR hooks, returns output. */
using OneShotBody = std::function<Result<Bytes>(PalHooks &)>;

/**
 * Run @p body as @p pal under @p exec. The function's sealed state (if
 * it seals) is bound to @p pal's measured identity, so a later one-shot
 * of the same PAL (same name and code size) can unseal it.
 */
Result<OneShotReport> runOneShot(SecureExecutive &exec, const sea::Pal &pal,
                                 const OneShotBody &body,
                                 const OneShotOptions &options = {});

} // namespace mintcb::rec

#endif // MINTCB_REC_ONESHOT_HH
