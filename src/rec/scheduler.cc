/**
 * @file
 * OS scheduler implementation.
 *
 * Deterministic virtual-time round-robin: each scheduling round gives
 * every PAL-eligible CPU one slice (SLAUNCH + compute + SYIELD/SFREE);
 * every CPU then fills up to the round barrier with legacy work, which
 * is how the run measures legacy throughput *concurrent* with secure
 * execution -- the property today's hardware denies (Section 4.2).
 */

#include "rec/scheduler.hh"

#include <algorithm>

namespace mintcb::rec
{

PalHooks::PalHooks(SecureExecutive &exec, Secb &secb, CpuId cpu)
    : exec_(exec), secb_(secb), cpu_(cpu)
{
}

void
PalHooks::compute(Duration d)
{
    exec_.machine().cpu(cpu_).advance(d);
}

Result<tpm::SealedBlob>
PalHooks::seal(const Bytes &payload)
{
    if (!secb_.sePcr)
        return Error(Errc::failedPrecondition, "PAL has no sePCR");
    exec_.machine().tpmAs(cpu_); // charge this core
    return exec_.sePcrs().seal(*secb_.sePcr, payload, *secb_.sePcr);
}

Result<Bytes>
PalHooks::unseal(const tpm::SealedBlob &blob)
{
    if (!secb_.sePcr)
        return Error(Errc::failedPrecondition, "PAL has no sePCR");
    exec_.machine().tpmAs(cpu_);
    return exec_.sePcrs().unseal(*secb_.sePcr, blob, *secb_.sePcr);
}

Status
PalHooks::extend(const Bytes &digest)
{
    if (!secb_.sePcr)
        return Error(Errc::failedPrecondition, "PAL has no sePCR");
    exec_.machine().tpmAs(cpu_);
    return exec_.sePcrs().extend(*secb_.sePcr, digest, *secb_.sePcr);
}

OsScheduler::OsScheduler(SecureExecutive &exec, Duration quantum,
                         std::uint32_t legacy_cpus)
    : exec_(exec), quantum_(quantum), legacyCpus_(legacy_cpus)
{
}

Result<std::size_t>
OsScheduler::add(const PalProgram &program)
{
    auto secb = allocateSecb(exec_.machine(), program.pal, nextBase_,
                             program.dataPages, quantum_);
    if (!secb)
        return secb.error();
    nextBase_ += (secb->pages.size() + 1) * pageSize;
    secb->requestId = program.requestId;
    tasks_.push_back(Task{.program = program,
                          .secb = secb.take(),
                          .remaining = program.totalCompute,
                          .seq = tasks_.size()});
    return tasks_.size() - 1;
}

Result<RunStats>
OsScheduler::runAll()
{
    machine::Machine &m = exec_.machine();
    const std::uint32_t total_cpus =
        static_cast<std::uint32_t>(m.cpuCount());
    if (legacyCpus_ >= total_cpus && !tasks_.empty()) {
        return Error(Errc::invalidArgument,
                     "no CPUs left for PAL execution");
    }

    RunStats stats;
    std::uint64_t legacy_before = 0;
    for (CpuId c = 0; c < total_cpus; ++c)
        legacy_before += m.cpu(c).legacyWorkDone();
    const std::uint64_t switches_before = exec_.contextSwitches();
    const Duration switch_time_before = exec_.contextSwitchTime();

    std::uint64_t round = 0;
    // Aged-priority pick: effective priority grows by one per round a
    // PAL waits, so a starved low-priority PAL eventually outranks a
    // stream of high-priority arrivals. Ties go to the PAL with the
    // earliest deadline, then to submission order (deterministic).
    auto next_ready = [&]() -> Task * {
        Task *best = nullptr;
        for (Task &t : tasks_) {
            if (t.finished || t.secb.state == PalState::execute ||
                t.lastRound == round) {
                continue;
            }
            if (!best) {
                best = &t;
                continue;
            }
            const auto eff = [](const Task &x) {
                return x.program.priority +
                       static_cast<int>(x.waitRounds);
            };
            if (eff(t) != eff(*best)) {
                if (eff(t) > eff(*best))
                    best = &t;
                continue;
            }
            const bool td = t.program.deadline != TimePoint();
            const bool bd = best->program.deadline != TimePoint();
            if (td != bd) {
                if (td)
                    best = &t;
                continue;
            }
            if (td && t.program.deadline != best->program.deadline) {
                if (t.program.deadline < best->program.deadline)
                    best = &t;
                continue;
            }
            // seq order: tasks_ is already in add() order, keep best.
        }
        return best;
    };

    auto all_done = [&]() {
        return std::all_of(tasks_.begin(), tasks_.end(),
                           [](const Task &t) { return t.finished; });
    };

    // Bring every CPU to the same barrier *with the time accounted as
    // legacy work*. (An unaccounted clock sync here would teleport
    // lagging cores forward, silently deflating measured legacy
    // throughput and context-switch density.)
    auto fill_to_barrier = [&]() {
        TimePoint barrier;
        for (CpuId c = 0; c < total_cpus; ++c)
            barrier = std::max(barrier, m.cpu(c).now());
        for (CpuId c = 0; c < total_cpus; ++c) {
            const Duration gap = barrier - m.cpu(c).now();
            if (gap > Duration::zero())
                m.cpu(c).runLegacyWork(gap);
        }
        exec_.notifyBarrier();
    };

    while (!all_done()) {
        fill_to_barrier();
        bool progressed = false;

        for (CpuId cpu = legacyCpus_; cpu < total_cpus; ++cpu) {
            // A failed SLAUNCH (TPM busy, no free sePCR) must not idle
            // the CPU: fall through to the next-best candidate --
            // typically a suspended PAL that already owns an sePCR.
            Task *task = nullptr;
            while ((task = next_ready()) != nullptr) {
                task->lastRound = round;
                if (exec_.slaunch(cpu, task->secb))
                    break;
                ++stats.slaunchRetries;
                ++task->waitRounds; // keep aging across retries
            }
            if (!task)
                continue;
            task->waitRounds = 0;
            progressed = true;
            PalHooks hooks(exec_, task->secb, cpu);

            if (!task->startHookRan) {
                task->startHookRan = true;
                if (task->program.onStart) {
                    if (auto s = task->program.onStart(hooks); !s.ok()) {
                        // PAL aborts: it yields, and the OS kills it.
                        exec_.syield(task->secb);
                        exec_.skill(task->secb);
                        task->finished = true;
                        PalCompletion aborted;
                        aborted.name = task->program.pal.name();
                        aborted.result = Status{s.error()};
                        aborted.finishedAt =
                            m.cpu(cpu).now().sinceEpoch();
                        aborted.launches = task->secb.launches;
                        aborted.yields = task->secb.yields;
                        aborted.seq = task->seq;
                        aborted.measurement = task->program.pal.measurement();
                        aborted.preemptions = task->secb.preemptions;
                        aborted.cpu = cpu;
                        // Same rule as normal completion: only a set
                        // deadline can be missed.
                        aborted.deadlineMet =
                            task->program.deadline == TimePoint() ||
                            m.cpu(cpu).now() <= task->program.deadline;
                        stats.preemptions += task->secb.preemptions;
                        stats.completions.push_back(std::move(aborted));
                        if (completionHook_)
                            completionHook_(stats.completions.back());
                        continue;
                    }
                }
            }

            // Hand the PAL its remaining work; the hardware preemption
            // timer cuts the slice at the OS-configured quantum and
            // auto-suspends (Section 5.3.1).
            auto retired = exec_.executeFor(task->secb, task->remaining);
            if (!retired)
                return retired.error();
            task->remaining -= *retired;

            if (task->remaining > Duration::zero()) {
                // Timer fired: the PAL is already suspended by hardware.
                continue;
            }

            // Final slice: run the finish hook inside the PAL, erase the
            // data pages (the PAL's own duty), and SFREE.
            Status finish = okStatus();
            if (task->program.onFinish)
                finish = task->program.onFinish(hooks);
            for (PageNum p : task->secb.pages)
                m.memory().zeroPage(p);
            if (auto s = exec_.sfree(task->secb, /*from_pal=*/true);
                !s.ok()) {
                return s.error();
            }

            PalCompletion done;
            done.name = task->program.pal.name();
            done.result = finish;
            done.finishedAt = m.cpu(cpu).now().sinceEpoch();
            done.launches = task->secb.launches;
            done.yields = task->secb.yields;
            done.seq = task->seq;
            done.measurement = task->program.pal.measurement();
            done.preemptions = task->secb.preemptions;
            done.cpu = cpu;
            done.deadlineMet =
                task->program.deadline == TimePoint() ||
                m.cpu(cpu).now() <= task->program.deadline;

            // Untrusted code collects the attestation, then frees the
            // sePCR for reuse (Section 5.4.3).
            if (task->secb.sePcr) {
                if (quoteOnExit_ || task->program.wantQuote) {
                    m.tpmAs(cpu);
                    auto q = exec_.sePcrs().quote(
                        *task->secb.sePcr, m.rng().bytes(20));
                    if (q) {
                        done.quote = q.take();
                        done.quoted = true;
                    }
                }
                exec_.sePcrs().release(*task->secb.sePcr);
            }
            task->finished = true;
            stats.preemptions += task->secb.preemptions;
            stats.completions.push_back(std::move(done));
            if (completionHook_)
                completionHook_(stats.completions.back());
        }

        // Round barrier: every CPU fills the gap to the slowest CPU with
        // legacy work -- the OS genuinely runs *alongside* the PALs.
        TimePoint round_end;
        for (CpuId c = 0; c < total_cpus; ++c)
            round_end = std::max(round_end, m.cpu(c).now());
        if (!progressed && round_end == m.now()) {
            // Nothing launched and no time passed (pure contention):
            // let the OS spin briefly so retries make progress.
            round_end += quantum_;
        }
        for (CpuId c = 0; c < total_cpus; ++c) {
            const Duration gap = round_end - m.cpu(c).now();
            if (gap > Duration::zero())
                m.cpu(c).runLegacyWork(gap);
        }
        exec_.notifyBarrier();
        // Everyone who waited this round ages by one (priority boost).
        for (Task &t : tasks_) {
            if (!t.finished && t.lastRound != round)
                ++t.waitRounds;
        }
        ++round;
    }

    stats.makespan = m.now().sinceEpoch();
    std::uint64_t legacy_after = 0;
    for (CpuId c = 0; c < total_cpus; ++c)
        legacy_after += m.cpu(c).legacyWorkDone();
    stats.legacyWorkUnits = legacy_after - legacy_before;
    stats.contextSwitches = exec_.contextSwitches() - switches_before;
    stats.contextSwitchTime =
        exec_.contextSwitchTime() - switch_time_before;
    return stats;
}

} // namespace mintcb::rec
