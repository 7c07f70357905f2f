/**
 * @file
 * Memory controller implementation.
 */

#include "machine/memctrl.hh"

#include <algorithm>
#include <iterator>
#include <string>

namespace mintcb::machine
{

MemoryController::MemoryController(PhysicalMemory &memory)
    : memory_(memory), dev_(memory.pages(), false),
      acl_(memory.pages())
{
}

void
MemoryController::reset()
{
    std::fill(dev_.begin(), dev_.end(), false);
    std::fill(acl_.begin(), acl_.end(), AclEntry{});
    stats_ = mintcb::MemCtrlStats{};
}

Status
MemoryController::check(Agent agent, PageNum page) const
{
    if (page >= acl_.size())
        return Error(Errc::invalidArgument, "page out of range");

    const AclEntry &entry = acl_[page];
    if (agent.kind == Agent::Kind::dmaDevice) {
        // DMA is blocked by either mechanism: the DEV bit (today) or a
        // non-ALL ACL state (recommendation).
        if (dev_[page]) {
            return Error(Errc::permissionDenied,
                         "DEV blocks DMA to page " + std::to_string(page));
        }
        if (entry.state != PageState::all) {
            return Error(Errc::permissionDenied,
                         "ACL blocks DMA to protected page " +
                             std::to_string(page));
        }
        return okStatus();
    }

    // CPU access: the DEV does not restrict CPUs, only the ACL table.
    switch (entry.state) {
      case PageState::all:
        return okStatus();
      case PageState::owned:
        if (entry.ownerMask & (1ull << agent.cpu))
            return okStatus();
        return Error(Errc::permissionDenied,
                     "page " + std::to_string(page) +
                         " owned by another CPU");
      case PageState::none:
        return Error(Errc::permissionDenied,
                     "page " + std::to_string(page) +
                         " belongs to a suspended PAL (state NONE)");
    }
    return Error(Errc::permissionDenied, "unreachable");
}

void
MemoryController::notifyAccess(const Agent &agent, PageNum page,
                               PhysAddr addr, std::uint64_t len,
                               bool isWrite, bool granted) const
{
    if (observers_.empty())
        return;
    // Clip [addr, addr+len) to this page: the sub-page byte range the
    // access touches here (a zero-length probe reports len == 0 at the
    // probed offset).
    const PhysAddr base = pageBase(page);
    const PhysAddr start = std::max(addr, base);
    const PhysAddr end = std::min(addr + len, base + pageSize);
    const auto offset = static_cast<std::uint32_t>(start - base);
    const auto chunk = static_cast<std::uint32_t>(
        end > start ? end - start : 0);
    for (MemAccessObserver *obs : observers_)
        obs->onAccess(agent, page, offset, chunk, isWrite, granted);
}

Result<Bytes>
MemoryController::read(Agent agent, PhysAddr addr, std::uint64_t len) const
{
    if (!memory_.contains(addr, len))
        return Error(Errc::invalidArgument, "read out of range");
    const bool dma = agent.kind == Agent::Kind::dmaDevice;
    (dma ? stats_.dmaReads : stats_.cpuReads) += 1;
    const PageNum first = pageOf(addr);
    const PageNum last = len ? pageOf(addr + len - 1) : first;
    for (PageNum p = first; p <= last; ++p) {
        if (auto s = check(agent, p); !s.ok()) {
            (dma ? stats_.dmaDenials : stats_.cpuDenials) += 1;
            notifyAccess(agent, p, addr, len, /*isWrite=*/false, false);
            return s.error();
        }
        notifyAccess(agent, p, addr, len, /*isWrite=*/false, true);
    }
    return memory_.read(addr, len);
}

Status
MemoryController::write(Agent agent, PhysAddr addr, const Bytes &data)
{
    if (!memory_.contains(addr, data.size()))
        return Error(Errc::invalidArgument, "write out of range");
    const bool dma = agent.kind == Agent::Kind::dmaDevice;
    (dma ? stats_.dmaWrites : stats_.cpuWrites) += 1;
    const PageNum first = pageOf(addr);
    const PageNum last =
        data.empty() ? first : pageOf(addr + data.size() - 1);
    for (PageNum p = first; p <= last; ++p) {
        if (auto s = check(agent, p); !s.ok()) {
            (dma ? stats_.dmaDenials : stats_.cpuDenials) += 1;
            notifyAccess(agent, p, addr, data.size(), /*isWrite=*/true,
                         false);
            return s;
        }
        notifyAccess(agent, p, addr, data.size(), /*isWrite=*/true,
                     true);
    }
    return memory_.write(addr, data);
}

Status
MemoryController::devProtect(PageNum first, std::uint64_t count)
{
    if (first + count > dev_.size())
        return Error(Errc::invalidArgument, "DEV range out of bounds");
    for (std::uint64_t i = 0; i < count; ++i)
        dev_[first + i] = true;
    return okStatus();
}

Status
MemoryController::devUnprotect(PageNum first, std::uint64_t count)
{
    if (first + count > dev_.size())
        return Error(Errc::invalidArgument, "DEV range out of bounds");
    for (std::uint64_t i = 0; i < count; ++i)
        dev_[first + i] = false;
    return okStatus();
}

bool
MemoryController::devProtected(PageNum page) const
{
    return page < dev_.size() && dev_[page];
}

Status
MemoryController::aclAcquire(const std::vector<PageNum> &pages, CpuId cpu)
{
    // Validate the whole transition before applying any of it, so a
    // failed SLAUNCH leaves the table untouched (Section 5.6: "If the
    // memory controller discovers that another PAL is already using any
    // of these memory pages, it signals the CPU that SLAUNCH must return
    // a failure code").
    for (PageNum p : pages) {
        if (p >= acl_.size())
            return Error(Errc::invalidArgument, "page out of range");
        const AclEntry &e = acl_[p];
        if (e.state == PageState::owned) {
            return Error(Errc::permissionDenied,
                         "page " + std::to_string(p) +
                             " already owned by another CPU");
        }
    }
    for (PageNum p : pages) {
        acl_[p] = {PageState::owned, 1ull << cpu};
        ++stats_.aclTransitions;
    }
    return okStatus();
}

Status
MemoryController::aclSuspend(const std::vector<PageNum> &pages, CpuId cpu)
{
    for (PageNum p : pages) {
        if (p >= acl_.size())
            return Error(Errc::invalidArgument, "page out of range");
        const AclEntry &e = acl_[p];
        if (e.state != PageState::owned ||
            !(e.ownerMask & (1ull << cpu))) {
            return Error(Errc::failedPrecondition,
                         "page " + std::to_string(p) +
                             " not owned by suspending CPU");
        }
    }
    for (PageNum p : pages) {
        acl_[p].state = PageState::none;
        ++stats_.aclTransitions;
    }
    return okStatus();
}

Status
MemoryController::aclRelease(const std::vector<PageNum> &pages)
{
    for (PageNum p : pages) {
        if (p >= acl_.size())
            return Error(Errc::invalidArgument, "page out of range");
    }
    for (PageNum p : pages) {
        acl_[p] = AclEntry{};
        ++stats_.aclTransitions;
    }
    return okStatus();
}

PageState
MemoryController::pageState(PageNum page) const
{
    return page < acl_.size() ? acl_[page].state : PageState::all;
}

std::optional<CpuId>
MemoryController::pageOwner(PageNum page) const
{
    if (page >= acl_.size() || acl_[page].state == PageState::all)
        return std::nullopt;
    return static_cast<CpuId>(
        __builtin_ctzll(acl_[page].ownerMask));
}

std::uint64_t
MemoryController::pageOwnerMask(PageNum page) const
{
    if (page >= acl_.size() || acl_[page].state == PageState::all)
        return 0;
    return acl_[page].ownerMask;
}

Status
MemoryController::aclJoin(const std::vector<PageNum> &pages,
                          CpuId existing_cpu, CpuId joining_cpu)
{
    for (PageNum p : pages) {
        if (p >= acl_.size())
            return Error(Errc::invalidArgument, "page out of range");
        const AclEntry &e = acl_[p];
        if (e.state != PageState::owned ||
            !(e.ownerMask & (1ull << existing_cpu))) {
            return Error(Errc::failedPrecondition,
                         "join requires pages owned by the existing CPU");
        }
    }
    for (PageNum p : pages)
        acl_[p].ownerMask |= 1ull << joining_cpu;
    return okStatus();
}

} // namespace mintcb::machine

namespace mintcb
{

namespace
{

using MemCtrlField = CounterField<MemCtrlStats>;

constexpr MemCtrlField memctrlFields[] = {
    {"mintcb_memctrl_cpu_reads_total", "CPU reads mediated", "cpu_rd",
     &MemCtrlStats::cpuReads},
    {"mintcb_memctrl_cpu_writes_total", "CPU writes mediated", "cpu_wr",
     &MemCtrlStats::cpuWrites},
    {"mintcb_memctrl_dma_reads_total", "DMA reads mediated", "dma_rd",
     &MemCtrlStats::dmaReads},
    {"mintcb_memctrl_dma_writes_total", "DMA writes mediated", "dma_wr",
     &MemCtrlStats::dmaWrites},
    {"mintcb_memctrl_cpu_denials_total", "ACL-blocked CPU accesses",
     "cpu_denied", &MemCtrlStats::cpuDenials},
    {"mintcb_memctrl_dma_denials_total", "DEV/ACL-blocked DMA accesses",
     "dma_denied", &MemCtrlStats::dmaDenials},
    {"mintcb_memctrl_acl_transitions_total", "Page state changes",
     "acl_transitions", &MemCtrlStats::aclTransitions},
};
static_assert(sizeof(MemCtrlStats) ==
                  std::size(memctrlFields) * sizeof(std::uint64_t),
              "every MemCtrlStats field needs a row in memctrlFields");

} // namespace

std::span<const MemCtrlField>
MemCtrlStats::fields()
{
    return memctrlFields;
}

} // namespace mintcb
