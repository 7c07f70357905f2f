/**
 * @file
 * Distributed factoring implementation.
 */

#include "apps/factoring_pal.hh"

#include "common/bytebuf.hh"

namespace mintcb::apps
{

namespace
{

/** Modeled per-candidate trial-division cost on the PAL's core. */
constexpr Duration perCandidateCost = Duration::nanos(15);

struct WorkerState
{
    std::uint64_t composite;
    std::uint64_t next; // next odd candidate divisor

    Bytes
    encode() const
    {
        ByteWriter w;
        w.u64(composite);
        w.u64(next);
        return w.take();
    }

    static Result<WorkerState>
    decode(const Bytes &wire)
    {
        ByteReader r(wire);
        WorkerState s;
        s.composite = r.getU64();
        s.next = r.getU64();
        if (!r.ok())
            return r.error();
        return s;
    }
};

/** PAL output: found flag, factor, next candidate, exhausted flag. */
Bytes
encodeOutcome(bool found, std::uint64_t factor, std::uint64_t next,
              bool exhausted)
{
    ByteWriter w;
    w.u8(found ? 1 : 0);
    w.u64(factor);
    w.u64(next);
    w.u8(exhausted ? 1 : 0);
    return w.take();
}

sea::Pal
factoringPal(std::uint64_t composite, std::uint64_t chunk, bool first)
{
    return sea::Pal::fromLogic(
        "distributed-factoring-pal", 6 * 1024,
        [composite, chunk, first](sea::PalContext &ctx) -> Status {
            WorkerState state{composite, 3};
            if (!first) {
                auto blob = tpm::SealedBlob::decode(ctx.input());
                if (!blob)
                    return blob.error();
                auto wire = ctx.unsealState(*blob);
                if (!wire)
                    return wire.error();
                auto decoded = WorkerState::decode(*wire);
                if (!decoded)
                    return decoded.error();
                state = *decoded;
                if (state.composite != composite) {
                    return Error(Errc::invalidArgument,
                                 "sealed state is for another composite");
                }
            } else if (composite % 2 == 0) {
                ctx.setOutput(encodeOutcome(true, 2, 3, false));
                return okStatus();
            }

            // One chunk of odd-candidate trial division.
            bool found = false, exhausted = false;
            std::uint64_t factor = 0;
            std::uint64_t tried = 0;
            while (tried < chunk) {
                const std::uint64_t c = state.next;
                if (c > composite / c) { // c*c > composite, overflow-safe
                    exhausted = true;
                    break;
                }
                if (composite % c == 0) {
                    found = true;
                    factor = c;
                    break;
                }
                state.next += 2;
                ++tried;
            }
            ctx.compute(perCandidateCost *
                        static_cast<double>(tried + 1));

            if (!found && !exhausted) {
                auto blob = ctx.sealState(state.encode());
                if (!blob)
                    return blob.error();
                ByteWriter out;
                out.raw(encodeOutcome(false, 0, state.next, false));
                out.lengthPrefixed(blob->encode());
                ctx.setOutput(out.take());
                return okStatus();
            }
            ctx.setOutput(encodeOutcome(found, factor, state.next,
                                        exhausted));
            return okStatus();
        });
}

} // namespace

DistributedFactoring::DistributedFactoring(sea::SeaDriver &driver,
                                           std::uint64_t composite,
                                           std::uint64_t chunk)
    : driver_(driver), composite_(composite), chunk_(chunk)
{
}

Result<DistributedFactoring::Progress>
DistributedFactoring::step(CpuId cpu)
{
    if (progress_.found || progress_.exhausted)
        return progress_;

    const bool first = !haveState_;
    auto session = driver_.run(
        sea::PalRequest(factoringPal(composite_, chunk_, first),
                        first ? Bytes{} : state_.encode()),
        cpu);
    if (!session)
        return session.error();
    const sea::ExecutionReport &s = *session;
    if (!s.status.ok())
        return s.status.error();
    overhead_ += s.phases.launch + s.phases.transition +
                 s.phases.teardown;
    compute_ += s.phases.compute;
    ++progress_.sessions;

    ByteReader r(s.output);
    const bool found = r.getU8() == 1;
    const std::uint64_t factor = r.getU64();
    const std::uint64_t next = r.getU64();
    const bool exhausted = r.getU8() == 1;
    if (!r.ok())
        return Error(Errc::integrityFailure, "malformed PAL outcome");
    progress_.found = found;
    progress_.factor = factor;
    progress_.nextCandidate = next;
    progress_.exhausted = exhausted;

    if (!progress_.found && !progress_.exhausted) {
        const Bytes blob_wire = r.getLengthPrefixed();
        if (!r.ok())
            return r.error();
        auto blob = tpm::SealedBlob::decode(blob_wire);
        if (!blob)
            return blob.error();
        state_ = blob.take();
        haveState_ = true;
    }
    return progress_;
}

Result<DistributedFactoring::Progress>
DistributedFactoring::runToCompletion(std::size_t max_sessions, CpuId cpu)
{
    for (std::size_t i = 0; i < max_sessions; ++i) {
        auto p = step(cpu);
        if (!p)
            return p.error();
        if (p->found || p->exhausted)
            return p;
    }
    return Error(Errc::resourceExhausted,
                 "session budget exhausted before completion");
}

} // namespace mintcb::apps
