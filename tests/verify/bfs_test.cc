/**
 * @file
 * The bfs() engine's contract, pinned on a toy model: a bounded counter
 * whose actions are "+1" and "*2". Each test switches on one behaviour
 * the protection and store models rely on -- action-level violations
 * into already-seen states, loud truncation by either limit, minimal
 * traces, and expansion failures that end the walk instead of being
 * skipped.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "verify/bfs.hh"

namespace mintcb::verify
{
namespace
{

struct CounterModel
{
    using State = int;
    using Key = std::string;

    int start = 1;
    int ceiling = 1000;
    int forbidden = -1;         //!< state invariant: never reach this
    int illegalDoubleFrom = -1; //!< action invariant: never double this
    int unexpandable = -1;      //!< expand() fails on this state

    template <class Visit>
    Status
    initial(Visit &&visit) const
    {
        visit(start, [&] { return start; });
        return okStatus();
    }

    template <class Step>
    Status
    expand(const int &n, Step &&step) const
    {
        if (n == unexpandable)
            return Error(Errc::failedPrecondition,
                         "cannot expand " + std::to_string(n));
        const int inc = n + 1;
        if (inc <= ceiling && !step("+1", inc, "", [&] { return inc; }))
            return okStatus();
        const int dbl = n * 2;
        const std::string violation =
            n == illegalDoubleFrom ? "doubled " + std::to_string(n) : "";
        if (dbl <= ceiling)
            step("*2", dbl, violation, [&] { return dbl; });
        return okStatus();
    }

    Key key(const int &n) const { return std::to_string(n); }
    std::string
    check(const int &n) const
    {
        return n == forbidden ? "reached " + std::to_string(n) : "";
    }
    std::string dump(const int &n) const { return "n=" + std::to_string(n); }
};

using Trace = std::vector<std::string>;

TEST(Bfs, CleanWalkCountsStatesAndTransitions)
{
    CounterModel m;
    m.ceiling = 8;
    const ExploreResult r = bfs(m);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_NE(r.str().find("all invariants hold"), std::string::npos);
    // States 1..8, the initial one included. Every accepted transition
    // counts, new target or not: "+1" from 1..7, "*2" from 1..4.
    EXPECT_EQ(r.statesExplored, 8u);
    EXPECT_EQ(r.transitionsTaken, 11u);
    // 7 is first reached as 1 -> 2 -> 3 -> 6 -> 7.
    EXPECT_EQ(r.maxDepthReached, 4u);
}

TEST(Bfs, InitialStateIsChecked)
{
    CounterModel m;
    m.forbidden = 1;
    const ExploreResult r = bfs(m);
    ASSERT_TRUE(r.counterexample.has_value()) << r.str();
    EXPECT_TRUE(r.counterexample->trace.empty());
    EXPECT_EQ(r.counterexample->violation, "reached 1");
    EXPECT_EQ(r.statesExplored, 1u);
}

TEST(Bfs, ActionViolationIntoASeenStateIsReported)
{
    // "+1" from 1 discovers 2 first; the illegal "*2" from 1 lands on
    // the already-seen 2 and must still be caught.
    CounterModel m;
    m.illegalDoubleFrom = 1;
    const ExploreResult r = bfs(m);
    ASSERT_TRUE(r.counterexample.has_value()) << r.str();
    EXPECT_EQ(r.counterexample->trace, Trace{"*2"});
    EXPECT_EQ(r.counterexample->violation, "doubled 1");
    EXPECT_EQ(r.counterexample->stateDump, "n=2");
    EXPECT_EQ(r.statesExplored, 2u);
    EXPECT_EQ(r.transitionsTaken, 2u);
}

TEST(Bfs, TraceIsMinimal)
{
    // "+1" is tried first, yet BFS reaches 8 by doubling, not by seven
    // increments.
    CounterModel m;
    m.forbidden = 8;
    const ExploreResult r = bfs(m);
    ASSERT_TRUE(r.counterexample.has_value()) << r.str();
    EXPECT_EQ(r.counterexample->trace, (Trace{"+1", "*2", "*2"}));
    EXPECT_EQ(r.counterexample->violation, "reached 8");
    EXPECT_EQ(r.counterexample->stateDump, "n=8");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.str().find("3. *2"), std::string::npos) << r.str();
}

TEST(Bfs, DepthCapTruncatesLoudly)
{
    ExploreLimits limits;
    limits.maxDepth = 3;
    const ExploreResult r = bfs(CounterModel{}, limits);
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.counterexample.has_value());
    EXPECT_EQ(r.maxDepthReached, 3u);
    EXPECT_NE(r.str().find("TRUNCATED"), std::string::npos);
}

TEST(Bfs, StateCapTruncatesLoudly)
{
    ExploreLimits limits;
    limits.maxStates = 5;
    const ExploreResult r = bfs(CounterModel{}, limits);
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.statesExplored, 5u);
    EXPECT_NE(r.str().find("TRUNCATED"), std::string::npos);

    // A cap the state space exactly fills is not a truncation.
    CounterModel small;
    small.ceiling = 8;
    limits.maxStates = 8;
    EXPECT_TRUE(bfs(small, limits).ok());
}

TEST(Bfs, ExpansionFailureEndsTheWalk)
{
    CounterModel m;
    m.unexpandable = 3;
    const ExploreResult r = bfs(m);
    EXPECT_FALSE(r.ok());
    ASSERT_TRUE(r.counterexample.has_value()) << r.str();
    EXPECT_EQ(r.counterexample->trace, (Trace{"+1", "+1"}));
    EXPECT_NE(r.str().find("model failed to expand this state"),
              std::string::npos)
        << r.str();
    EXPECT_NE(r.str().find("cannot expand 3"), std::string::npos);
}

} // namespace
} // namespace mintcb::verify
