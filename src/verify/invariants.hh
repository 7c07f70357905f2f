/**
 * @file
 * The invariant catalog (paper Section 6's security argument, made
 * machine-checkable).
 *
 * The paper's isolation story is a conjunction of state-machine
 * invariants: memory pages move ALL -> CPUi -> NONE and are never
 * readable by two CPUs that do not co-run the same PAL; sePCRs move
 * Free -> Exclusive -> Quote and are never bound to two PALs at once;
 * the PAL life cycle (Figure 6) never re-enters SLAUNCH on an
 * already-bound SECB; and SKILL revokes *everything* a PAL held.
 * Nothing in the simulator may merely assume these -- this header makes
 * each one a named, declarative predicate over a canonical snapshot of
 * the combined memctrl / sePCR / lifecycle state, so the model checker
 * (verify/explorer.hh), the test suites (oracle), and the lint
 * driver all check the *same* catalog.
 */

#ifndef MINTCB_VERIFY_INVARIANTS_HH
#define MINTCB_VERIFY_INVARIANTS_HH

#include <optional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"
#include "machine/memctrl.hh"
#include "rec/lifecycle.hh"
#include "rec/secb.hh"
#include "rec/sepcr.hh"

namespace mintcb::verify
{

/** One page of the access-control table, as the invariants see it. */
struct PageView
{
    machine::PageState state = machine::PageState::all;
    std::uint64_t ownerMask = 0;
};

/** One sePCR, as the invariants see it. */
struct SePcrView
{
    rec::SePcrState state = rec::SePcrState::free;
};

/** One PAL, as the invariants see it. */
struct PalView
{
    rec::PalState state = rec::PalState::start;
    std::optional<CpuId> runningOn;
    std::optional<rec::SePcrHandle> sePcr;
    std::vector<PageNum> pages;
    bool measuredFlag = false;
};

/**
 * A canonical view of the whole protection state. encode() yields a
 * fingerprint suitable for state-space dedup; str() a human-readable
 * dump for counterexample traces.
 */
struct WorldSnapshot
{
    std::vector<PageView> pages;
    std::vector<SePcrView> sePcrs;
    std::vector<PalView> pals;

    Bytes encode() const;
    std::string str() const;
};

/** A named, declarative predicate over a WorldSnapshot. */
struct Invariant
{
    const char *name;
    const char *property; //!< one-line statement of what must hold
    Status (*check)(const WorldSnapshot &);
};

/**
 * Every invariant the paper's security argument rests on:
 *
 *  - page-ownership-exclusion: non-ALL pages belong to exactly one PAL
 *    and their owner mask covers only CPUs running that PAL.
 *  - executing-pal-owns-pages: a PAL in Execute holds all its pages in
 *    CPUi, owned by exactly the CPU it runs on.
 *  - suspended-pal-pages-none: a suspended PAL's pages are all NONE
 *    (readable by no CPU and no DMA device).
 *  - inactive-pal-fully-revoked: a PAL in Start or Done owns nothing
 *    (SFREE/SKILL returned every page to ALL).
 *  - sepcr-exclusive-binding: an Exclusive sePCR is bound to exactly
 *    one live PAL; no two PALs share a handle; a dead PAL's handle is
 *    at most in Quote (awaiting collection), never Exclusive.
 *  - cpu-runs-one-pal: no CPU executes two PALs (the no-SLAUNCH-on-a-
 *    bound-SECB rule, seen from the CPU side).
 */
const std::vector<Invariant> &invariantCatalog();

/** Check the full catalog; first failure wins (names the invariant). */
Status checkAllInvariants(const WorldSnapshot &snapshot);

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_INVARIANTS_HH
