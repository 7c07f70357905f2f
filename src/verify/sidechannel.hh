/**
 * @file
 * Access-pattern side channels: the recording substrate the leakage
 * audit's adversary models share.
 *
 * A malicious hypervisor cannot read an encrypted guest's memory, but
 * it controls the nested page tables and can single-step the guest,
 * observing *which guest page* every access touches and in what order
 * (SEV-Step, and the controlled-channel attacks before it). With
 * shared-cache residue (Prime+Probe and friends) the same adversary
 * refines pages down to 64-byte cache lines. Either way the trace is
 * enough to leak secrets whenever the victim's access pattern depends
 * on secret data.
 *
 * PageAccessTrace plays the recording half of that adversary against
 * the simulated platform: it rides the machine::MemAccessObserver hook
 * -- the same mediation point the host's access-control check uses --
 * and records the ordered touch sequence inside a configurable window
 * (e.g. the vm-tee backend's guest data pages) at page or cache-line
 * granularity. accessPatternLeak() then compares the traces of two
 * runs that differed only in secret input: any divergence is exactly
 * the signal the hypervisor would see, and the verify layer flags it
 * as a leak. The richer adversary *models* (footprint sweeps,
 * fault-sequence induction, interrupt single-stepping) live in
 * verify/adversary.hh; the quantitative scoring in verify/leakage.hh.
 */

#ifndef MINTCB_VERIFY_SIDECHANNEL_HH
#define MINTCB_VERIFY_SIDECHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "machine/memctrl.hh"

namespace mintcb::verify
{

/** Spatial resolution of an access-pattern observer. */
enum class Granularity
{
    page,      //!< 4 KB pages (nested-page-table / EPC-fault channels)
    cacheLine, //!< 64 B lines (shared-cache Prime+Probe channels)
};

/** Bytes per cache line on the simulated platform. */
inline constexpr std::size_t cacheLineSize = 64;

const char *granularityName(Granularity g);

/** One observed access at the adversary's granularity: the page, the
 *  line within it (0 at page granularity), and the direction -- never
 *  the data. */
struct PageAccess
{
    PageNum page = 0;
    std::uint32_t line = 0; //!< cache-line index within the page
    bool isWrite = false;

    bool
    operator==(const PageAccess &other) const
    {
        return page == other.page && line == other.line &&
               isWrite == other.isWrite;
    }
    bool operator!=(const PageAccess &other) const
    {
        return !(*this == other);
    }
};

/**
 * The recording adversary. Attach to a machine, run the victim, read
 * the trace. Only accesses inside [firstPage, lastPage] are recorded
 * (the window the hypervisor would watch, e.g. the TEE guest's data
 * region); everything else is the victim's noise floor. At cache-line
 * granularity an access spanning several lines records one entry per
 * line touched.
 */
class PageAccessTrace final : public machine::MemAccessObserver
{
  public:
    /** Watch pages in the inclusive window [first_page, last_page]. */
    PageAccessTrace(PageNum first_page, PageNum last_page,
                    Granularity granularity = Granularity::page)
        : first_(first_page), last_(last_page),
          granularity_(granularity)
    {
    }
    ~PageAccessTrace() override { detach(); }

    PageAccessTrace(const PageAccessTrace &) = delete;
    PageAccessTrace &operator=(const PageAccessTrace &) = delete;

    /** Join @p machine's access-observer fan-out (other observers keep
     *  seeing the stream; re-attaching moves to the new machine). */
    void
    attach(machine::Machine &machine)
    {
        detach();
        machine_ = &machine;
        machine.memctrl().accessObservers().add(this);
    }

    /** Leave the observer fan-out (idempotent). */
    void
    detach()
    {
        if (machine_)
            machine_->memctrl().accessObservers().remove(this);
        machine_ = nullptr;
    }

    Granularity granularity() const { return granularity_; }

    /** The ordered touch sequence observed so far. */
    const std::vector<PageAccess> &accesses() const { return trace_; }

    /** Forget everything recorded (window and granularity stay). */
    void clear() { trace_.clear(); }

    void
    onAccess(const machine::Agent &agent, PageNum page,
             std::uint32_t offset, std::uint32_t len, bool isWrite,
             bool granted) override
    {
        (void)agent;
        (void)granted; // even a denied probe reveals the address
        if (page < first_ || page > last_)
            return;
        if (granularity_ == Granularity::page) {
            trace_.push_back({page, 0, isWrite});
            return;
        }
        // One entry per 64 B line the chunk [offset, offset+len)
        // touches; a zero-length probe still reveals its line.
        const std::uint32_t firstLine =
            offset / static_cast<std::uint32_t>(cacheLineSize);
        const std::uint32_t lastLine =
            len ? (offset + len - 1) /
                      static_cast<std::uint32_t>(cacheLineSize)
                : firstLine;
        for (std::uint32_t l = firstLine; l <= lastLine; ++l)
            trace_.push_back({page, l, isWrite});
    }

  private:
    PageNum first_;
    PageNum last_;
    Granularity granularity_;
    machine::Machine *machine_ = nullptr;
    std::vector<PageAccess> trace_;
};

/**
 * Verdict of comparing two recorded traces.
 *
 * Contract (see accessPatternLeak):
 *
 *  - Two empty traces are identical: leaks == false, lengths 0,
 *    firstDivergence == 0.
 *  - Element-identical traces of any length (including a single
 *    access) never leak; firstDivergence stays 0.
 *  - Traces that differ at some index leak, with firstDivergence the
 *    smallest index whose elements differ.
 *  - A strict prefix leaks through its *length*: no element differs,
 *    so firstDivergence == min(lengthA, lengthB) (the index at which
 *    one adversary saw an access and the other saw the victim stop).
 *    An empty trace against a non-empty one is the degenerate prefix:
 *    leaks == true, firstDivergence == 0.
 *
 * leaks == false implies lengthA == lengthB and firstDivergence == 0.
 */
struct LeakReport
{
    /** True when the touch sequences differ anywhere -- the access
     *  pattern depends on the input, so a pattern-observing adversary
     *  distinguishes the two runs. */
    bool leaks = false;
    /** Index of the first differing access (or the shorter length,
     *  when one trace is a strict prefix of the other). */
    std::size_t firstDivergence = 0;
    std::size_t lengthA = 0;
    std::size_t lengthB = 0;

    /** One-line human-readable verdict. */
    std::string str() const;
};

/** Compare two runs' traces: identical sequences mean this adversary
 *  learned nothing; any divergence is a flagged leak. Pure function of
 *  the two sequences -- see the LeakReport contract for every edge
 *  case (empty, identical, prefix, unequal lengths). */
LeakReport accessPatternLeak(const std::vector<PageAccess> &a,
                             const std::vector<PageAccess> &b);

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_SIDECHANNEL_HH
