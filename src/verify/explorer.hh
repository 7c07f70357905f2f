/**
 * @file
 * The protection state machines as a verify::bfs model.
 *
 * Exhaustive enumeration of every reachable World state under every
 * action interleaving, checking the full invariant catalog (and the
 * model-vs-controller access cross-check) on each newly discovered
 * state. States are deduplicated by canonical snapshot fingerprint.
 *
 * The model is replay-based: a state is identified by the action
 * sequence that first reached it, and expansion re-executes that
 * sequence on a fresh World. This keeps the production classes free of
 * copy/restore plumbing at the cost of O(depth) re-execution per edge
 * -- negligible for the <= 3-CPU / <= 4-PAL / <= 8-page configurations
 * the paper's argument needs. A recorded path that stops replaying is a
 * model fault, and bfs() reports it as one.
 */

#ifndef MINTCB_VERIFY_EXPLORER_HH
#define MINTCB_VERIFY_EXPLORER_HH

#include <memory>
#include <string>
#include <vector>

#include "verify/bfs.hh"
#include "verify/model.hh"

namespace mintcb::verify
{

/** The combined SLAUNCH / SYIELD / SFREE / SKILL state machine. */
class ProtectionModel
{
  public:
    using State = std::vector<Action>; //!< the path that first got here
    using Key = Bytes;                 //!< canonical snapshot encoding

    explicit ProtectionModel(const ModelConfig &config,
                             Mutation mutation = Mutation::none)
        : config_(config), mutation_(mutation)
    {
    }

    template <class Visit>
    Status
    initial(Visit &&visit) const
    {
        visit(World(config_, mutation_), [] { return State{}; });
        return okStatus();
    }

    template <class Step>
    Status
    expand(const State &path, Step &&step) const
    {
        // Rebuild the node's world once; after an accepted candidate
        // mutates it, rebuild again for the next candidate. Rejected
        // candidates leave the world untouched (World::apply contract).
        auto world = replay(path);
        if (!world)
            return world.error();
        bool dirty = false;
        for (const Action &candidate : (*world)->candidateActions()) {
            if (dirty && !(world = replay(path)))
                return world.error();
            dirty = (*world)->apply(candidate).ok();
            if (!dirty)
                continue; // refused: enforcement, not a violation
            auto next = [&] {
                State longer = path;
                longer.push_back(candidate);
                return longer;
            };
            if (!step(candidate.str(), **world, std::string(), next))
                break;
        }
        return okStatus();
    }

    Key key(const World &w) const { return w.snapshot().encode(); }

    std::string
    check(const World &w) const
    {
        Status verdict = checkAllInvariants(w.snapshot());
        if (verdict.ok())
            verdict = w.crossCheckAccess();
        return verdict.ok() ? std::string() : verdict.error().str();
    }

    std::string dump(const World &w) const { return w.snapshot().str(); }

  private:
    /** A fresh World with @p path re-applied; an error if a recorded
     *  step no longer replays. */
    Result<std::unique_ptr<World>>
    replay(const State &path) const
    {
        auto world = std::make_unique<World>(config_, mutation_);
        for (std::size_t i = 0; i < path.size(); ++i) {
            if (Status s = world->apply(path[i]); !s.ok()) {
                return Error(Errc::failedPrecondition,
                             "recorded path stopped replaying at step " +
                                 std::to_string(i + 1) + " (" +
                                 path[i].str() + "): " + s.error().str());
            }
        }
        return world;
    }

    ModelConfig config_;
    Mutation mutation_;
};

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_EXPLORER_HH
