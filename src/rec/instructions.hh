/**
 * @file
 * The recommended CPU instructions: SLAUNCH, SYIELD, SFREE, SKILL.
 *
 * SecureExecutive models the hardware extension surface of Section 5: it
 * couples the memory controller's access-control table, the sePCR bank,
 * per-CPU preemption timers, and the VM-switch-class context-switch
 * costs into the Figure 7 semantics. This is the piece of hardware the
 * paper recommends but that was never built; mintcb executes it
 * functionally and charges the latencies the paper projects for it.
 */

#ifndef MINTCB_REC_INSTRUCTIONS_HH
#define MINTCB_REC_INSTRUCTIONS_HH

#include <cstdint>

#include "common/observers.hh"
#include "common/result.hh"
#include "machine/machine.hh"
#include "rec/secb.hh"
#include "rec/sepcr.hh"

namespace mintcb::rec
{

/** Externally visible life-cycle / synchronization events. */
enum class ExecEvent
{
    slaunchMeasure, //!< first launch: pages acquired, PAL measured
    slaunchResume,  //!< resume: pages re-acquired from NONE
    syield,         //!< suspend: pages to NONE, state saved
    sfree,          //!< clean exit: pages to ALL, sePCR to Quote
    skill,          //!< OS kill: pages erased and released
};

/** Printable event name. */
const char *execEventName(ExecEvent e);

/**
 * Observer of the hardware extension's synchronization points. The
 * verify layer hangs its happens-before race detector and trace
 * recorder here; the executive never behaves differently with
 * observers attached. SLAUNCH events are page *acquisitions* by @p cpu,
 * SYIELD/SFREE/SKILL events are *releases* (for SKILL the OS reclaims
 * an already-suspended PAL, so the reporting CPU is 0).
 */
class ExecSyncObserver
{
  public:
    virtual ~ExecSyncObserver() = default;
    virtual void onPalEvent(ExecEvent event, CpuId cpu,
                            const Secb &secb) = 0;
    /** All CPUs meet a scheduler round barrier. */
    virtual void onBarrier() = 0;
};

/** Timing evidence from one SLAUNCH. */
struct SlaunchReport
{
    bool firstLaunch = false; //!< measured this time (MF was clear)
    Duration total;           //!< latency on the invoking CPU
    Duration measurement;     //!< TPM streaming cost (first launch only)
};

/** The hardware extension: new instructions + sePCR bank + ACL table. */
class SecureExecutive
{
  public:
    /**
     * Attach to @p machine with @p sepcr_count sePCRs (the concurrent
     * PAL limit, Section 5.4).
     */
    SecureExecutive(machine::Machine &machine,
                    std::size_t sepcr_count = 8);

    machine::Machine &machine() { return machine_; }
    SePcrTpm &sePcrs() { return sePcrs_; }

    /**
     * SLAUNCH (Figure 7). First launch: acquire the SECB's pages for
     * @p cpu, reinitialize the core, stream the PAL to the TPM, bind a
     * sePCR, set the Measured Flag, jump. Resume: re-acquire pages from
     * NONE, restore state, jump -- at VM-entry cost.
     *
     * The Measured Flag is honored only if the pages were in NONE
     * (Section 5.3.1); a forged MF on fresh pages forces re-measurement.
     *
     * @pre Like the real hardware structure (the CPU holds the SECB's
     * physical address), @p secb must not move while the PAL is in
     * Execute -- the executive keeps a pointer for interrupt routing.
     */
    Result<SlaunchReport> slaunch(CpuId cpu, Secb &secb);

    /**
     * SYIELD / preemption-timer expiry: save state to the SECB, move the
     * pages to NONE, clear leak-capable microarchitectural state, return
     * to the OS -- at VM-exit cost.
     */
    Status syield(Secb &secb);

    /**
     * Model the executing PAL computing for @p work. If the SECB's
     * preemption timer expires first, hardware runs only the budgeted
     * slice and then *automatically and securely* suspends the PAL
     * (Section 5.3.1: "When the timer expires ... the PAL's CPU state
     * should be automatically and securely written to its SECB by
     * hardware"). Returns the work actually retired.
     */
    Result<Duration> executeFor(Secb &secb, Duration work);

    /**
     * SFREE: clean PAL exit. Must execute from inside the PAL
     * (@p from_pal models the instruction-address check of Section 5.5).
     * Pages go to ALL; the sePCR moves to Quote.
     */
    Status sfree(Secb &secb, bool from_pal);

    /**
     * SKILL: the OS kills a suspended (or stuck-runnable) PAL. Hardware
     * erases every PAL page, releases them to ALL, extends the kill
     * marker, and frees the sePCR (Section 5.5).
     */
    Status skill(Secb &secb);

    /**
     * Section 6 multicore extension: join @p joining_cpu to a PAL
     * currently executing on @p secb.runningOn.
     */
    Status join(CpuId joining_cpu, Secb &secb);

    /**
     * Section 6 interrupt extension: the *running PAL* installs an IDT
     * covering @p vectors. Each subsequent resume of this PAL pays
     * idtReprogramCost to reprogram the interrupt routing logic (the
     * "undesirable overhead" the paper warns about).
     */
    Status configureIdt(Secb &secb, std::vector<std::uint8_t> vectors);

    /**
     * Deliver interrupt @p vector to @p cpu. Returns true if a PAL with
     * a matching IDT entry received it; false if it was deferred to the
     * untrusted OS (PAL running without opt-in, or no PAL at all).
     */
    Result<bool> deliverInterrupt(CpuId cpu, std::uint8_t vector);

    /** Interrupts a PAL absorbed (per-SECB count lives in the SECB;
     *  this is the platform total). */
    std::uint64_t palInterruptsDelivered() const
    {
        return palInterrupts_;
    }

    /** Cost to reprogram interrupt routing when scheduling an
     *  IDT-carrying PAL. */
    static constexpr Duration idtReprogramCost = Duration::micros(1.8);

    /** @name Aggregate statistics. @{ */
    std::uint64_t contextSwitches() const { return contextSwitches_; }
    Duration contextSwitchTime() const { return contextSwitchTime_; }
    /** @} */

    /** @name Verification hooks. @{ */
    /** Watchers of the synchronization points. */
    ObserverList<ExecSyncObserver> &syncObservers() { return observers_; }
    /** Schedulers report their round barriers through the executive so
     *  every attached observer sees every synchronization edge. */
    void
    notifyBarrier()
    {
        for (ExecSyncObserver *obs : observers_)
            obs->onBarrier();
    }
    /** @} */

  private:
    void
    notify(ExecEvent event, CpuId cpu, const Secb &secb)
    {
        for (ExecSyncObserver *obs : observers_)
            obs->onPalEvent(event, cpu, secb);
    }

    machine::Machine &machine_;
    SePcrTpm sePcrs_;
    std::uint64_t contextSwitches_ = 0;
    Duration contextSwitchTime_;
    std::uint64_t palInterrupts_ = 0;
    std::vector<Secb *> runningOnCpu_; //!< indexed by CpuId, may be null
    ObserverList<ExecSyncObserver> observers_;
};

} // namespace mintcb::rec

#endif // MINTCB_REC_INSTRUCTIONS_HH
