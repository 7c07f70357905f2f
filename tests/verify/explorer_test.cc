/**
 * @file
 * Protection-model tests: exhaustive enumeration of the protection
 * state machines on small configurations, plus the seeded-mutation
 * regressions that prove the walk can actually find violations.
 */

#include <gtest/gtest.h>

#include "verify/explorer.hh"

namespace mintcb::verify
{
namespace
{

TEST(StateExplorer, DefaultConfigHoldsEveryInvariant)
{
    // The acceptance configuration: 2 CPUs, 2 PALs, 4 pages, 2 sePCRs.
    const ExploreResult result = bfs(ProtectionModel(ModelConfig{}));
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_FALSE(result.truncated);
    EXPECT_FALSE(result.counterexample.has_value());
    // Exhaustive means the walk saw the real state space, not a stub:
    // every PAL in {Start, Execute-on-cpu0/1, Suspend, Done} x sePCR and
    // resume-flag combinations. The exact counts are pinned to catch
    // accidental pruning (a model change may legitimately update them).
    EXPECT_EQ(result.statesExplored, 80u);
    EXPECT_EQ(result.transitionsTaken, 278u);
    EXPECT_EQ(result.maxDepthReached, 6u);
}

TEST(StateExplorer, RunIsDeterministic)
{
    const ExploreResult a = bfs(ProtectionModel(ModelConfig{}));
    const ExploreResult b = bfs(ProtectionModel(ModelConfig{}));
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsTaken, b.transitionsTaken);
    EXPECT_EQ(a.maxDepthReached, b.maxDepthReached);
}

TEST(StateExplorer, ThreeCpuThreePalConfigHolds)
{
    ModelConfig cfg;
    cfg.cpus = 3;
    cfg.pals = 3;
    cfg.pagesPerPal = 2;
    cfg.sePcrs = 3;
    const ExploreResult result = bfs(ProtectionModel(cfg));
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_EQ(result.statesExplored, 2996u);
    EXPECT_EQ(result.transitionsTaken, 19584u);
    EXPECT_EQ(result.maxDepthReached, 9u);
}

TEST(StateExplorer, SepcrContentionConfigHolds)
{
    // More PALs than sePCRs: launches beyond the bank's capacity must be
    // refused, never granted a shared handle.
    ModelConfig cfg;
    cfg.cpus = 3;
    cfg.pals = 4;
    cfg.pagesPerPal = 2;
    cfg.sePcrs = 2;
    const ExploreResult result = bfs(ProtectionModel(cfg));
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_EQ(result.statesExplored, 2644u);
    EXPECT_EQ(result.transitionsTaken, 14076u);
    EXPECT_EQ(result.maxDepthReached, 12u);
}

TEST(StateExplorer, StateCapTruncatesLoudly)
{
    ExploreLimits limits;
    limits.maxStates = 10;
    const ExploreResult result =
        bfs(ProtectionModel(ModelConfig{}), limits);
    EXPECT_TRUE(result.truncated);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.str().find("TRUNCATED"), std::string::npos);
}

TEST(StateExplorer, SuspendSkippingNoneIsCaught)
{
    const ExploreResult result =
        bfs(ProtectionModel(ModelConfig{}, Mutation::suspendSkipsNone));
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    // A suspended PAL whose pages stayed in CPUi is readable by a CPU
    // that is not running it.
    EXPECT_NE(result.counterexample->violation.find(
                  "page-ownership-exclusion"),
              std::string::npos)
        << result.counterexample->str();
    // BFS finds the minimal trace: SLAUNCH then SYIELD.
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"SLAUNCH(pal0, cpu0)",
                                        "SYIELD(pal0)"}));
}

TEST(StateExplorer, SfreeSkippingReleaseIsCaught)
{
    const ExploreResult result =
        bfs(ProtectionModel(ModelConfig{}, Mutation::sfreeSkipsRelease));
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find(
                  "page-ownership-exclusion"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"SLAUNCH(pal0, cpu0)",
                                        "SFREE(pal0)"}));
}

TEST(StateExplorer, SkillLeavingSepcrBoundIsCaught)
{
    const ExploreResult result =
        bfs(ProtectionModel(ModelConfig{}, Mutation::skillLeavesSepcrBound));
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find(
                  "inactive-pal-fully-revoked"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"SLAUNCH(pal0, cpu0)",
                                        "SYIELD(pal0)", "SKILL(pal0)"}));
}

TEST(StateExplorer, CounterexampleRendersTraceAndState)
{
    const ExploreResult result =
        bfs(ProtectionModel(ModelConfig{}, Mutation::suspendSkipsNone));
    ASSERT_TRUE(result.counterexample.has_value());
    const std::string text = result.counterexample->str();
    EXPECT_NE(text.find("SLAUNCH"), std::string::npos);
    EXPECT_NE(text.find("SYIELD"), std::string::npos);
    EXPECT_NE(text.find("violation:"), std::string::npos);
    EXPECT_NE(text.find("pages:"), std::string::npos);
}

TEST(StateExplorer, UnreplayablePathIsAnExpansionError)
{
    // A path the World refuses to replay must not be expanded from
    // whatever state the refusal left behind -- in any build type.
    Action yield;
    yield.kind = Action::Kind::syield;
    const ProtectionModel model(ModelConfig{});
    const Status s = model.expand({yield}, [](auto &&...) { return true; });
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("stopped replaying at step 1"),
              std::string::npos)
        << s.error().str();
}

TEST(StateExplorer, MutationsAreDistinctFromClean)
{
    // Every mutation changes reachable-state structure; none is a
    // silent no-op.
    const ExploreResult clean = bfs(ProtectionModel(ModelConfig{}));
    for (Mutation m : {Mutation::suspendSkipsNone,
                       Mutation::sfreeSkipsRelease,
                       Mutation::skillLeavesSepcrBound}) {
        const ExploreResult r = bfs(ProtectionModel(ModelConfig{}, m));
        EXPECT_TRUE(r.counterexample.has_value()) << mutationName(m);
        EXPECT_NE(r.statesExplored, clean.statesExplored)
            << mutationName(m);
    }
}

} // namespace
} // namespace mintcb::verify
