/**
 * @file
 * The explorable world: real transition functions, small configuration.
 *
 * A World couples the *production* MemoryController access-control
 * table, the *production* SePcrTpm bank, and the *production* lifecycle
 * transition table into the combined SLAUNCH / SYIELD / SFREE / SKILL
 * semantics at component granularity -- the same sequencing as
 * rec::SecureExecutive, minus the timing model. verify::bfs over the
 * ProtectionModel (verify/explorer.hh) enumerates every action
 * interleaving over it; a Mutation deliberately breaks one step of one
 * transition so the regression suite can prove the walk actually finds
 * violations.
 */

#ifndef MINTCB_VERIFY_MODEL_HH
#define MINTCB_VERIFY_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/memctrl.hh"
#include "machine/memory.hh"
#include "rec/sepcr.hh"
#include "verify/invariants.hh"

namespace mintcb::verify
{

/** Size of the configuration to enumerate (keep small: the state space
 *  is exponential in pals x cpus). */
struct ModelConfig
{
    std::uint32_t cpus = 2;
    std::uint32_t pals = 2;
    std::uint32_t pagesPerPal = 2;
    std::size_t sePcrs = 2;
};

/** A deliberately seeded bug in one transition (explorer regression). */
enum class Mutation
{
    none,
    /** SYIELD suspends the PAL but skips the CPUi -> NONE page
     *  transition, leaving a suspended PAL's pages readable. */
    suspendSkipsNone,
    /** SFREE marks the PAL Done but never returns its pages to ALL. */
    sfreeSkipsRelease,
    /** SKILL tears the pages down but leaves the sePCR Exclusive. */
    skillLeavesSepcrBound,
};

/** Printable mutation name. */
const char *mutationName(Mutation m);

/** One transition of the combined state machine. */
struct Action
{
    enum class Kind
    {
        slaunch, //!< launch/resume @c pal on @c cpu
        syield,  //!< suspend @c pal (timer expiry / voluntary yield)
        sfree,   //!< clean exit of @c pal
        skill,   //!< OS kills suspended @c pal
        release, //!< untrusted code frees @c pal's quoted sePCR
    };

    Kind kind = Kind::slaunch;
    std::uint32_t pal = 0;
    CpuId cpu = 0; //!< meaningful for slaunch only

    std::string str() const;
};

/** The explorable instance. */
class World
{
  public:
    explicit World(const ModelConfig &config,
                   Mutation mutation = Mutation::none);

    const ModelConfig &config() const { return cfg_; }

    /**
     * Apply one action. ok() => the transition was accepted and the
     * state advanced; an error => the hardware refused it and nothing
     * changed (a rejected action is not an invariant violation -- it is
     * the enforcement working).
     */
    Status apply(const Action &action);

    /** Every syntactically sensible action from the current state (the
     *  explorer tries each; rejections prune themselves). */
    std::vector<Action> candidateActions() const;

    /** Canonical view for invariant checking and dedup. */
    WorldSnapshot snapshot() const;

    /**
     * Cross-check the snapshot against the *real* controller's access
     * decisions: every page's CPU/DMA readability must match what the
     * ownership view implies. Catches model/implementation drift.
     */
    Status crossCheckAccess() const;

  private:
    struct Pal
    {
        rec::PalState state = rec::PalState::start;
        std::optional<CpuId> runningOn;
        std::optional<rec::SePcrHandle> sePcr;
        std::vector<PageNum> pages;
        bool measuredFlag = false;
        Bytes image;
    };

    Status slaunch(Pal &pal, CpuId cpu);
    Status syield(Pal &pal);
    Status sfree(Pal &pal);
    Status skill(Pal &pal);
    Status release(Pal &pal);

    ModelConfig cfg_;
    Mutation mutation_;
    machine::PhysicalMemory mem_;
    machine::MemoryController ctrl_;
    rec::SePcrTpm bank_;
    std::vector<Pal> pals_;
};

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_MODEL_HH
