/**
 * @file
 * Exhaustive model checking of the sealed-store lifecycle.
 *
 * A small abstract model of src/store's durability state machine --
 * replicas with a durable directory epoch, an un-rollbackable hardware
 * counter, an admission (late-launch) gate, and attested migration --
 * explored breadth-first under every interleaving of commits, crashes,
 * adversarial stale-disk replays, and migrations. Three invariants are
 * checked on every reachable state:
 *
 *  1. no unseal without admission: a store is never live on a machine
 *     whose identity PAL has not been admitted (late-launched);
 *  2. epoch monotonicity: a machine never serves a sealed epoch lower
 *     than one it already served -- the hardware counter must make
 *     every stale-replay open a typed rejection;
 *  3. single live replica: after a migration there are never two live
 *     replicas of the same dataset (the source is invalidated by the
 *     unmatched counter advance).
 *
 * Seeded mutations disable one protection mechanism each, and the
 * regression tests prove the walk then *finds* the violation with a
 * minimal counterexample trace -- the same discipline as
 * verify/explorer.hh applies to the protection state machines. Both
 * are walked by the one engine in verify/bfs.hh.
 */

#ifndef MINTCB_VERIFY_STOREMODEL_HH
#define MINTCB_VERIFY_STOREMODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verify/bfs.hh"

namespace mintcb::verify
{

/** Seeded defects: each removes one mechanism the invariants rest on. */
enum class StoreMutation
{
    none,
    /** open() ignores the hardware counter: stale replays are served. */
    ignoreCounter,
    /** migration skips invalidating the source replica. */
    skipInvalidate,
    /** open() no longer requires the identity PAL to be admitted. */
    openWithoutAdmission,
};

const char *storeMutationName(StoreMutation m);

/** Model bounds. Small numbers are enough: every violation class shows
 *  up within two commits and one migration. */
struct StoreModelConfig
{
    int machines = 2;

    /** Commits per machine are bounded by this epoch ceiling. */
    std::uint64_t maxEpoch = 2;

    /** Enable the adversary action that swaps in an older disk image. */
    bool adversaryReplay = true;

    StoreMutation mutation = StoreMutation::none;
};

/** The store lifecycle as a verify::bfs model. States are tiny plain
 *  structs, so the model copies worlds directly. */
class StoreLifecycleModel
{
  public:
    /** One machine's view of the store: the untrusted disk (epoch), the
     *  trusted chip (counter), and the engine lifecycle bits. */
    struct Replica
    {
        bool admitted = false;    //!< identity PAL late-launched
        bool live = false;        //!< engine open and serving
        bool invalidated = false; //!< counter advanced with no commit
        bool hasData = false;     //!< disk holds the dataset lineage
        std::uint64_t diskEpoch = 0;
        std::uint64_t counter = 0;
        /** Highest epoch this machine ever served live (history variable
         *  for the monotonicity invariant; not part of the real engine). */
        std::uint64_t servedFloor = 0;
    };

    struct World
    {
        std::vector<Replica> replicas;
    };

    /** A candidate successor: the action label plus the resulting world.
     *  `violation` is set when the action itself crossed an invariant
     *  (monotonicity is a property of the *act* of going live). */
    struct Successor
    {
        std::string action;
        World world;
        std::string violation;
    };

    using State = World;
    using Key = std::string;

    explicit StoreLifecycleModel(StoreModelConfig config = {})
        : config_(config)
    {
    }

    template <class Visit>
    Status
    initial(Visit &&visit) const
    {
        World world;
        world.replicas.resize(static_cast<std::size_t>(
            config_.machines > 0 ? config_.machines : 1));
        world.replicas[0].hasData = true; // machine 0 owns the dataset
        visit(world, [&] { return world; });
        return okStatus();
    }

    template <class Step>
    Status
    expand(const World &from, Step &&step) const
    {
        for (Successor &s : successors(from, config_)) {
            if (!step(s.action, s.world, s.violation,
                      [&] { return std::move(s.world); }))
                break;
        }
        return okStatus();
    }

    Key key(const World &w) const;
    std::string check(const World &w) const { return checkStatePredicates(w); }
    std::string dump(const World &w) const;

  private:
    static std::string checkStatePredicates(const World &w);
    static std::vector<Successor> successors(const World &w,
                                             const StoreModelConfig &cfg);

    StoreModelConfig config_;
};

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_STOREMODEL_HH
