/**
 * @file
 * Happens-before race detector implementation.
 */

#include "verify/race.hh"

#include <algorithm>

namespace mintcb::verify
{

std::string
Race::str() const
{
    auto access = [](CpuId cpu, bool w) {
        return std::string(w ? "write" : "read") + " by CPU " +
               std::to_string(cpu);
    };
    return "race on page " + std::to_string(page) + ": " +
           access(firstCpu, firstIsWrite) + " unordered with " +
           access(secondCpu, secondIsWrite);
}

HbRaceDetector::HbRaceDetector(std::size_t cpus)
    : cpus_(cpus), clocks_(cpus, VectorClock(cpus))
{
}

HbRaceDetector::~HbRaceDetector()
{
    if (ctrl_)
        ctrl_->accessObservers().remove(this);
    if (exec_)
        exec_->syncObservers().remove(this);
}

void
HbRaceDetector::attach(machine::MemoryController &ctrl)
{
    ctrl_ = &ctrl;
    ctrl.accessObservers().add(this);
}

void
HbRaceDetector::attach(rec::SecureExecutive &exec)
{
    exec_ = &exec;
    exec.syncObservers().add(this);
}

void
HbRaceDetector::report(PageNum page, CpuId firstCpu, bool firstIsWrite,
                       CpuId secondCpu, bool secondIsWrite)
{
    if (!seen_.insert({page, firstCpu, secondCpu, firstIsWrite,
                       secondIsWrite})
             .second) {
        return;
    }
    if (races_.size() >= maxStoredRaces) {
        ++dropped_;
        return;
    }
    races_.push_back({page, firstCpu, firstIsWrite, secondCpu,
                      secondIsWrite});
}

void
HbRaceDetector::onAccess(const machine::Agent &agent, PageNum page,
                         std::uint32_t offset, std::uint32_t len,
                         bool isWrite, bool granted)
{
    // The happens-before discipline is page-granular (ownership moves
    // whole pages through the ACL table), so the sub-page range only
    // matters to the leakage audit, not to race detection.
    (void)offset;
    (void)len;
    // Only granted CPU accesses participate: a denied access never
    // touches memory, and DMA ordering is the DEV's problem, not the
    // inter-CPU discipline this detector checks.
    if (!granted || agent.kind != machine::Agent::Kind::cpu)
        return;
    const CpuId cpu = agent.cpu;
    if (cpu >= cpus_)
        return;
    ++accessesChecked_;

    VectorClock &vc = clocks_[cpu];
    vc.tick(cpu);
    const std::uint64_t epoch = vc.at(cpu);

    PageHistory &h = pages_[page];
    if (h.readEpochs.empty())
        h.readEpochs.assign(cpus_, 0);

    // Conflict with the last write (read/write and write/write).
    if (h.hasWrite && h.writeCpu != cpu &&
        !vc.ordersAfter(h.writeCpu, h.writeEpoch)) {
        report(page, h.writeCpu, true, cpu, isWrite);
    }
    // A write additionally conflicts with every unordered read.
    if (isWrite) {
        for (CpuId r = 0; r < cpus_; ++r) {
            if (r == cpu || h.readEpochs[r] == 0)
                continue;
            if (!vc.ordersAfter(r, h.readEpochs[r]))
                report(page, r, false, cpu, true);
        }
    }

    if (isWrite) {
        h.hasWrite = true;
        h.writeCpu = cpu;
        h.writeEpoch = epoch;
        // Prior reads are now ordered (or already reported); a future
        // access conflicting with them conflicts with this write too.
        std::fill(h.readEpochs.begin(), h.readEpochs.end(), 0);
    } else {
        h.readEpochs[cpu] = epoch;
    }
}

void
HbRaceDetector::onPalEvent(rec::ExecEvent event, CpuId cpu,
                           const rec::Secb &secb)
{
    if (cpu >= cpus_)
        return;
    ++syncEvents_;
    VectorClock &vc = clocks_[cpu];
    switch (event) {
      case rec::ExecEvent::slaunchMeasure:
      case rec::ExecEvent::slaunchResume: {
        auto it = released_.find(&secb);
        if (it != released_.end())
            vc.join(it->second);
        break;
      }
      case rec::ExecEvent::syield:
      case rec::ExecEvent::sfree:
      case rec::ExecEvent::skill: {
        VectorClock &rel = released_[&secb];
        rel.join(vc);
        break;
      }
    }
    vc.tick(cpu);
}

void
HbRaceDetector::onBarrier()
{
    ++syncEvents_;
    VectorClock merged(cpus_);
    for (const VectorClock &vc : clocks_)
        merged.join(vc);
    for (std::size_t c = 0; c < cpus_; ++c) {
        clocks_[c] = merged;
        clocks_[c].tick(c);
    }
}

void
HbRaceDetector::onShardFork(std::uint32_t shard)
{
    (void)shard; // one detector per shard; the id is bookkeeping only
    ++shardForks_;
    onBarrier();
}

void
HbRaceDetector::onShardJoin(std::uint32_t shard)
{
    (void)shard;
    ++shardJoins_;
    onBarrier();
}

std::string
HbRaceDetector::str() const
{
    std::string out = std::to_string(accessesChecked_) +
                      " accesses checked, " +
                      std::to_string(syncEvents_) + " sync events, " +
                      std::to_string(races_.size()) + " race(s)";
    if (dropped_ > 0) {
        out += " (+" + std::to_string(dropped_) +
               " beyond the " + std::to_string(maxStoredRaces) +
               "-race cap)";
    }
    for (const Race &r : races_)
        out += "\n  " + r.str();
    return out;
}

} // namespace mintcb::verify
