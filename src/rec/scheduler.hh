/**
 * @file
 * The untrusted OS as resource manager (paper Figure 4).
 *
 * "Our recommendations must ... enable the concurrent execution of an
 * arbitrary number of mutually-untrusting PALs alongside an untrusted
 * legacy OS and legacy applications, and ... performant context
 * switching of individual PALs" (Section 5). The scheduler multiplexes
 * PALs over CPUs in preemption-timer quanta while legacy work fills
 * every idle cycle -- exactly the multiprogramming model SLAUNCH enables
 * and today's SKINIT forbids.
 */

#ifndef MINTCB_REC_SCHEDULER_HH
#define MINTCB_REC_SCHEDULER_HH

#include <functional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "rec/instructions.hh"
#include "sea/pal.hh"

namespace mintcb::rec
{

class PalHooks;

/** What the OS knows about a PAL it wants to run. */
struct PalProgram
{
    explicit PalProgram(sea::Pal pal_) : pal(std::move(pal_)) {}

    sea::Pal pal;                     //!< measured identity (SLB image)
    std::uint64_t requestId = 0;      //!< OS-side label, copied to the SECB
    std::size_t dataPages = 1;        //!< extra pages for PAL data
    Duration totalCompute;            //!< work the PAL must retire
    int priority = 0;                 //!< higher runs sooner (aged)
    TimePoint deadline{};             //!< epoch = no deadline
    bool wantQuote = false;           //!< quote this PAL's sePCR on exit
    /** Runs inside the PAL on its first slice (e.g. unseal old state). */
    std::function<Status(PalHooks &)> onStart;
    /** Runs inside the PAL on its final slice (e.g. seal new state). */
    std::function<Status(PalHooks &)> onFinish;
};

/** TPM/compute services available to a running PAL's hooks. */
class PalHooks
{
  public:
    PalHooks(SecureExecutive &exec, Secb &secb, CpuId cpu);

    CpuId cpu() const { return cpu_; }
    Secb &secb() { return secb_; }

    /** Charge PAL-side computation. */
    void compute(Duration d);

    /** Seal @p payload to this PAL's sePCR identity. */
    Result<tpm::SealedBlob> seal(const Bytes &payload);
    /** Unseal a blob sealed under this identity in any earlier run. */
    Result<Bytes> unseal(const tpm::SealedBlob &blob);
    /** Extend this PAL's sePCR (e.g. with input measurements). */
    Status extend(const Bytes &digest);

  private:
    SecureExecutive &exec_;
    Secb &secb_;
    CpuId cpu_;
};

/** Per-PAL completion record. */
struct PalCompletion
{
    std::string name;
    Status result = okStatus();
    Duration finishedAt;       //!< platform time of SFREE
    std::uint64_t launches = 0;
    std::uint64_t yields = 0;
    tpm::TpmQuote quote;       //!< filled when quoting was requested
    bool quoted = false;
    std::size_t seq = 0;       //!< add() index, for caller correlation
    Bytes measurement;         //!< SLB identity hash of this PAL
    std::uint64_t preemptions = 0; //!< timer-forced suspends
    CpuId cpu = 0;             //!< CPU that ran the final slice
    bool deadlineMet = true;   //!< false iff a deadline was set and missed
};

/** Aggregate outcome of a scheduler run. */
struct RunStats
{
    Duration makespan;                 //!< all PALs finished by this time
    std::uint64_t legacyWorkUnits = 0; //!< retired concurrently
    std::uint64_t contextSwitches = 0;
    Duration contextSwitchTime;
    std::uint64_t slaunchRetries = 0;  //!< sePCR/TPM contention retries
    std::uint64_t preemptions = 0;     //!< timer expiries across all PALs
    std::vector<PalCompletion> completions;
};

/** The untrusted OS scheduler. */
class OsScheduler
{
  public:
    /**
     * @p quantum is the preemption-timer budget the OS grants per slice.
     * @p legacy_cpus reserves that many CPUs (from CPU 0 up) for pure
     * legacy work; the rest run PALs (and legacy filler between slices).
     */
    OsScheduler(SecureExecutive &exec, Duration quantum,
                std::uint32_t legacy_cpus = 1);

    /** Enqueue @p program; allocates its SECB immediately. Returns the
     *  task's index (PalCompletion::seq); a SECB that does not fit in
     *  simulated RAM is Errc::resourceExhausted and enqueues nothing. */
    Result<std::size_t> add(const PalProgram &program);

    /** Request an attestation quote as each PAL exits. */
    void setQuoteOnExit(bool on) { quoteOnExit_ = on; }

    /** Invoked synchronously as each PAL completes (after its SFREE). */
    void setCompletionHook(std::function<void(const PalCompletion &)> hook)
    {
        completionHook_ = std::move(hook);
    }

    /** Run until every queued PAL is Done. */
    Result<RunStats> runAll();

  private:
    struct Task
    {
        PalProgram program;
        Secb secb;
        Duration remaining;
        bool startHookRan = false;
        bool finished = false;
        std::uint64_t lastRound = ~0ull; //!< one slice per round (causality)
        std::size_t seq = 0;             //!< add() order, stable tie-break
        std::uint64_t waitRounds = 0;    //!< rounds skipped (priority aging)
    };

    SecureExecutive &exec_;
    Duration quantum_;
    std::uint32_t legacyCpus_;
    bool quoteOnExit_ = false;
    std::function<void(const PalCompletion &)> completionHook_;
    PhysAddr nextBase_ = 0x40000;
    std::vector<Task> tasks_;
};

} // namespace mintcb::rec

#endif // MINTCB_REC_SCHEDULER_HH
