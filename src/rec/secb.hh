/**
 * @file
 * The Secure Execution Control Block (paper Figure 5(a)).
 *
 * "We define a Secure Execution Control Block (SECB) as a structure to
 * hold PAL state and resource allocations, both for the purposes of
 * launching a PAL and for storing the state of a PAL when it is not
 * executing" (Section 5.1.1). The untrusted OS allocates it; the
 * hardware (SecureExecutive) owns its integrity-relevant fields while
 * the PAL is live.
 */

#ifndef MINTCB_REC_SECB_HH
#define MINTCB_REC_SECB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/simtime.hh"
#include "common/types.hh"
#include "rec/lifecycle.hh"

namespace mintcb::rec
{

/** Handle naming a secure-execution PCR inside the TPM. */
using SePcrHandle = std::uint32_t;

/** Saved architectural state of a suspended PAL (Figure 5(a)'s "CPU
 *  State": general purpose registers, flags, EIP, ESP, ...). */
struct SavedCpuState
{
    std::uint64_t instructionPointer = 0;
    std::uint64_t stackPointer = 0;
    std::array<std::uint64_t, 16> gprs{};
    std::uint64_t flags = 0;
    bool valid = false; //!< set by SYIELD, consumed by resume
};

/** The SECB. */
struct Secb
{
    /** @name Filled in by the untrusted OS at allocation time. @{ */
    std::string palName;           //!< OS-side label (not trusted)
    /** OS-side label too: the service request this SECB runs (0 when
     *  the PAL was scheduled outside ExecutionService). */
    std::uint64_t requestId = 0;
    PhysAddr base = 0;             //!< start of the PAL image in memory
    std::vector<PageNum> pages;    //!< physical pages allocated to the PAL
    Duration preemptionTimer;      //!< CPU budget per scheduling slice
    /** @} */

    /**
     * Interrupt vectors the PAL opted in to receive (Section 6: "a PAL
     * should be able to configure an Interrupt Descriptor Table").
     * Empty (the default and the paper's recommendation) means the PAL
     * takes no interrupts at all.
     */
    std::vector<std::uint8_t> interruptVectors;

    /** @name Owned by hardware once SLAUNCH runs. @{ */
    bool measuredFlag = false;     //!< Measured Flag (Figure 6's MF)
    bool resumeFlag = false;       //!< set after first suspend
    std::optional<SePcrHandle> sePcr; //!< TPM-assigned at first launch
    SavedCpuState saved;           //!< architectural state while Suspended
    PalState state = PalState::start;
    std::optional<CpuId> runningOn; //!< CPU while in Execute
    /** @} */

    /** @name Accounting (simulation-side, not architectural). @{ */
    Duration executed;             //!< total compute retired
    std::uint64_t launches = 0;    //!< SLAUNCH count (measure + resumes)
    std::uint64_t yields = 0;      //!< SYIELD/preempt count
    std::uint64_t preemptions = 0; //!< timer-forced SYIELDs only
    /** @} */
};

} // namespace mintcb::rec

namespace mintcb::machine
{
class Machine;
}
namespace mintcb::sea
{
class Pal;
}

namespace mintcb::rec
{

/**
 * Untrusted-OS helper: place @p pal's SLB image at page-aligned @p base,
 * allocate @p data_pages additional pages for PAL data, and build the
 * SECB describing the allocation. Errc::resourceExhausted, before any
 * memory is written, when those pages run past simulated RAM.
 */
Result<Secb> allocateSecb(machine::Machine &machine, const sea::Pal &pal,
                          PhysAddr base, std::size_t data_pages,
                          Duration preemption_timer);

} // namespace mintcb::rec

#endif // MINTCB_REC_SECB_HH
