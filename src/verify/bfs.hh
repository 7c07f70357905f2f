/**
 * @file
 * The one breadth-first model-checking engine (DESIGN.md section 8.1).
 *
 * bfs(model, limits) owns the walk -- frontier, dedup on the model's
 * key, one parent index and action label per node, the ExploreLimits
 * budget -- and stops at the first violation with a minimal trace.
 * statesExplored counts distinct states, the initial one included;
 * transitionsTaken counts every accepted transition. The state
 * invariant runs on each newly discovered state; an action-level
 * violation is checked on every transition, before dedup. Either cap
 * sets truncated, and a failed expansion ends the walk with a
 * counterexample, so no walk is ever cut short silently.
 *
 * A model provides:
 *
 * @code
 *   using State = ...; // stored per discovered state
 *   using Key = ...;   // std::string or Bytes; equal keys = same state
 *   // visit(live, makeState) once, for the initial state.
 *   template <class Visit> Status initial(Visit &&visit) const;
 *   // step(action, live, violation, makeState) per accepted transition,
 *   // in a fixed order, until it returns false; `violation` is empty
 *   // unless the act itself broke an invariant.
 *   template <class Step> Status expand(const State &, Step &&) const;
 *   Key key(const Live &) const;
 *   std::string check(const Live &) const; // empty: invariants hold
 *   std::string dump(const Live &) const;
 * @endcode
 *
 * `Live` is the form the model inspects a state in (a replayed World
 * for a path-identified state, say); makeState() turns it into a State
 * and is called last, only for a newly discovered state.
 */

#ifndef MINTCB_VERIFY_BFS_HH
#define MINTCB_VERIFY_BFS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.hh"

namespace mintcb::verify
{

/** Exploration budget. Hitting a cap sets ExploreResult::truncated --
 *  never silently. */
struct ExploreLimits
{
    std::size_t maxStates = 250000;
    std::size_t maxDepth = 128;
};

/** A violation, with the exact action sequence that reproduces it. */
struct Counterexample
{
    std::vector<std::string> trace; //!< actions from the initial state
    std::string violation;          //!< which invariant, and how
    std::string stateDump;          //!< the violating state, if any

    std::string
    str() const
    {
        std::string out = "counterexample (" +
                          std::to_string(trace.size()) + " steps):\n";
        for (std::size_t i = 0; i < trace.size(); ++i)
            out += "  " + std::to_string(i + 1) + ". " + trace[i] + '\n';
        out += "violation: " + violation + "\n";
        return stateDump.empty() ? out
                                 : out + "state:\n" + stateDump + "\n";
    }
};

/** Outcome of one exhaustive walk. */
struct ExploreResult
{
    std::size_t statesExplored = 0;
    std::size_t transitionsTaken = 0;
    std::size_t maxDepthReached = 0;
    bool truncated = false; //!< a limit cut the walk short
    std::optional<Counterexample> counterexample;

    bool ok() const { return !counterexample && !truncated; }

    std::string
    str() const
    {
        std::string out = std::to_string(statesExplored) + " states, " +
                          std::to_string(transitionsTaken) +
                          " transitions, depth " +
                          std::to_string(maxDepthReached);
        if (truncated)
            out += " [TRUNCATED: limits hit, coverage incomplete]";
        return out + (counterexample ? "\n" + counterexample->str()
                                     : "; all invariants hold");
    }
};

namespace detail
{

/** FNV-1a over a key's bytes (std::string or Bytes). */
struct KeyHash
{
    template <class Key>
    std::size_t
    operator()(const Key &key) const
    {
        std::size_t h = 1469598103934665603ull;
        for (auto c : key) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ull;
        }
        return h;
    }
};

} // namespace detail

/** Walk everything @p model can reach within @p limits; stops at the
 *  first violation. */
template <class Model>
ExploreResult
bfs(const Model &model, ExploreLimits limits = {})
{
    struct Node
    {
        typename Model::State state;
        std::size_t parent;
        std::string action;
        std::size_t depth;
    };

    ExploreResult result;
    // A deque: appending while a node is being expanded must not move
    // it. Nodes are appended in BFS order, so the frontier is simply
    // every node past the one being expanded.
    std::deque<Node> nodes;
    std::unordered_set<typename Model::Key, detail::KeyHash> seen;
    bool stop = false;

    // The actions from the initial state to node @p at, then @p last.
    auto traceTo = [&](std::size_t at, const std::string *last) {
        std::vector<std::string> trace;
        if (last != nullptr)
            trace.push_back(*last);
        for (; at != 0; at = nodes[at].parent)
            trace.push_back(nodes[at].action);
        std::reverse(trace.begin(), trace.end());
        return trace;
    };
    auto fail = [&](std::vector<std::string> trace, std::string violation,
                    std::string dump) {
        result.counterexample = Counterexample{
            std::move(trace), std::move(violation), std::move(dump)};
        stop = true;
    };
    // Record a state if it is new and check it; false stops the walk.
    auto discover = [&](const auto &live, std::size_t parent,
                        const std::string &action, std::size_t depth,
                        auto &&makeState) {
        auto key = model.key(live);
        if (seen.count(key) != 0)
            return true;
        if (result.statesExplored >= limits.maxStates) {
            result.truncated = true;
            stop = true;
            return false;
        }
        seen.insert(std::move(key));
        ++result.statesExplored;
        result.maxDepthReached = std::max(result.maxDepthReached, depth);
        std::string violation = model.check(live);
        if (!violation.empty()) {
            fail(traceTo(parent, depth == 0 ? nullptr : &action),
                 std::move(violation), model.dump(live));
            return false;
        }
        // Last use of `live`: makeState() may move out of it.
        nodes.push_back(Node{makeState(), parent, action, depth});
        return true;
    };
    // An expansion the model could not complete ends the walk.
    auto checkExpanded = [&](const Status &s, std::size_t at) {
        if (!s.ok() && !stop)
            fail(traceTo(at, nullptr),
                 "model failed to expand this state: " + s.error().str(),
                 {});
    };

    checkExpanded(model.initial([&](const auto &live, auto &&makeState) {
                      discover(live, 0, {}, 0, makeState);
                  }),
                  0);

    for (std::size_t at = 0; at < nodes.size() && !stop; ++at) {
        if (nodes[at].depth >= limits.maxDepth) {
            result.truncated = true;
            continue;
        }
        auto step = [&](const std::string &action, const auto &live,
                        const std::string &violation, auto &&makeState) {
            ++result.transitionsTaken;
            if (violation.empty())
                return discover(live, at, action, nodes[at].depth + 1,
                                makeState);
            fail(traceTo(at, &action), violation, model.dump(live));
            return false;
        };
        checkExpanded(model.expand(nodes[at].state, step), at);
    }
    return result;
}

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_BFS_HH
