/**
 * @file
 * The north-bridge memory controller.
 *
 * Two protection mechanisms live here:
 *
 *  1. Today's hardware: the Device Exclusion Vector (AMD) / Memory
 *     Protection Table (Intel) -- a bit per page that blocks DMA-capable
 *     devices (Section 2.2.1). CPUs are NOT restricted by the DEV.
 *
 *  2. The paper's recommendation (Section 5.2): an access-control table
 *     with one entry per physical page recording which CPU, if any, may
 *     touch the page. Pages move through the Figure 5(b) state machine:
 *
 *         ALL --(SLAUNCH)--> CPUi --(suspend)--> NONE
 *          ^                   |                   |
 *          +----(SFREE/SKILL)--+<----(resume)------+
 *
 * Every read, write, and DMA access in the simulation is mediated by this
 * class, so isolation is enforced, not merely asserted.
 */

#ifndef MINTCB_MACHINE_MEMCTRL_HH
#define MINTCB_MACHINE_MEMCTRL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/observers.hh"
#include "common/result.hh"
#include "common/types.hh"
#include "common/counters.hh"
#include "machine/memory.hh"

namespace mintcb::machine
{

/** Originator of a memory request (CPUs carry their agent id; devices are
 *  DMA requestors behind the DEV). */
struct Agent
{
    enum class Kind
    {
        cpu,
        dmaDevice,
    };

    Kind kind = Kind::cpu;
    CpuId cpu = 0; //!< meaningful for Kind::cpu

    static Agent
    forCpu(CpuId id)
    {
        return {Kind::cpu, id};
    }
    static Agent
    forDevice()
    {
        return {Kind::dmaDevice, 0};
    }
};

/**
 * Observer of every mediated access, page chunk by page chunk. The
 * verify layer's happens-before race detector, the telemetry session,
 * and the side-channel audit adversaries all implement this; the
 * controller itself never behaves differently with observers attached.
 *
 * An access spanning N pages produces N callbacks, each carrying the
 * sub-page byte range [offset, offset + len) the access touches inside
 * that page -- so an observer can reconstruct the victim's footprint at
 * page granularity or refine it down to 64-byte cache lines (the
 * granularities the leakage audit compares).
 */
class MemAccessObserver
{
  public:
    virtual ~MemAccessObserver() = default;
    /** One page chunk of one read/write: bytes [offset, offset + len)
     *  within @p page; @p granted tells whether the access-control
     *  check admitted it (a zero-length probe reports len == 0). */
    virtual void onAccess(const Agent &agent, PageNum page,
                          std::uint32_t offset, std::uint32_t len,
                          bool isWrite, bool granted) = 0;
};

/** Per-page access-control state (Figure 5(b)). */
enum class PageState
{
    all,  //!< accessible to every CPU and DMA device (default)
    owned,//!< accessible only to the owning CPU (a PAL is executing)
    none, //!< accessible to nothing (the owning PAL is suspended)
};

/** The north bridge. */
class MemoryController
{
  public:
    /** Mediates access to @p memory (not owned). */
    explicit MemoryController(PhysicalMemory &memory);

    /** @name Mediated access. @{ */
    Result<Bytes> read(Agent agent, PhysAddr addr, std::uint64_t len) const;
    Status write(Agent agent, PhysAddr addr, const Bytes &data);
    /** @} */

    /** @name DEV / MPT (today's hardware). @{ */
    /** Mark pages DMA-protected (set during SKINIT for the SLB region). */
    Status devProtect(PageNum first, std::uint64_t count);
    /** Clear DMA protection. */
    Status devUnprotect(PageNum first, std::uint64_t count);
    bool devProtected(PageNum page) const;
    /** @} */

    /** @name Recommended access-control table (Section 5.2). @{ */
    /**
     * ALL/NONE -> CPUi for every page in @p pages. Fails without change
     * if any page is owned by another CPU or (for @p from_none = false)
     * not in ALL. SLAUNCH-on-launch uses from_none = false; resume allows
     * NONE -> CPUi.
     */
    Status aclAcquire(const std::vector<PageNum> &pages, CpuId cpu);
    /** CPUi -> NONE (PAL suspend). Fails if @p cpu is not an owner. */
    Status aclSuspend(const std::vector<PageNum> &pages, CpuId cpu);
    /** CPUi/NONE -> ALL (SFREE / SKILL). */
    Status aclRelease(const std::vector<PageNum> &pages);
    /**
     * Multicore-PAL join (Section 6): add @p joining_cpu as a co-owner of
     * pages currently owned (in part) by @p existing_cpu.
     */
    Status aclJoin(const std::vector<PageNum> &pages, CpuId existing_cpu,
                   CpuId joining_cpu);
    PageState pageState(PageNum page) const;
    /** Lowest-numbered owner when the page is owned/none; nullopt for
     *  ALL pages. */
    std::optional<CpuId> pageOwner(PageNum page) const;
    /** Bitmask of co-owning CPUs (bit i = CPU i); 0 for ALL pages. */
    std::uint64_t pageOwnerMask(PageNum page) const;
    /** @} */

    /** Number of pages under management. */
    std::uint64_t pages() const { return acl_.size(); }

    /** Access/denial counters (gem5-style observability). */
    const MemCtrlStats &stats() const { return stats_; }

    /** Watchers of the mediated access stream (telemetry, the HB race
     *  detector, audit traces), each notified for every page chunk. */
    ObserverList<MemAccessObserver> &accessObservers()
    {
        return observers_;
    }

    /** Reset every protection (platform reboot). */
    void reset();

  private:
    struct AclEntry
    {
        PageState state = PageState::all;
        std::uint64_t ownerMask = 0; //!< bit i set => CPU i co-owns
    };

    /** Can @p agent touch @p page right now? */
    Status check(Agent agent, PageNum page) const;

    /** Fan the page chunk of [addr, addr+len) that lies inside @p page
     *  out to every attached observer. */
    void notifyAccess(const Agent &agent, PageNum page, PhysAddr addr,
                      std::uint64_t len, bool isWrite,
                      bool granted) const;

    PhysicalMemory &memory_;
    std::vector<bool> dev_;
    std::vector<AclEntry> acl_;
    mutable MemCtrlStats stats_;
    ObserverList<MemAccessObserver> observers_;
};

} // namespace mintcb::machine

#endif // MINTCB_MACHINE_MEMCTRL_HH
