/**
 * @file
 * Store-lifecycle model-checker tests: the default model holds every
 * invariant exhaustively, and each seeded mutation is *found*, with a
 * counterexample naming the mechanism that was disabled.
 */

#include <gtest/gtest.h>

#include "verify/storemodel.hh"

namespace mintcb::verify
{
namespace
{

TEST(StoreModel, DefaultConfigHoldsEveryInvariant)
{
    const ExploreResult result = bfs(StoreLifecycleModel{});
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_FALSE(result.truncated);
    // Exhaustive, not a stub: commits, crashes, stale replays, and
    // migrations in both directions all interleave. The exact counts
    // are pinned to catch accidental pruning.
    EXPECT_EQ(result.statesExplored, 72u);
    EXPECT_EQ(result.transitionsTaken, 165u);
}

TEST(StoreModel, RunIsDeterministic)
{
    const ExploreResult a = bfs(StoreLifecycleModel{});
    const ExploreResult b = bfs(StoreLifecycleModel{});
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsTaken, b.transitionsTaken);
}

TEST(StoreModel, DeeperEpochBoundStillHolds)
{
    StoreModelConfig cfg;
    cfg.maxEpoch = 3;
    const ExploreResult result = bfs(StoreLifecycleModel{cfg});
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_EQ(result.statesExplored, 176u);
    EXPECT_EQ(result.transitionsTaken, 500u);
}

TEST(StoreModel, WithoutAdversaryTheSpaceShrinks)
{
    StoreModelConfig adversarial;
    StoreModelConfig benign;
    benign.adversaryReplay = false;
    const auto a = bfs(StoreLifecycleModel{adversarial});
    const auto b = bfs(StoreLifecycleModel{benign});
    EXPECT_TRUE(a.ok()) << a.str();
    EXPECT_TRUE(b.ok()) << b.str();
    EXPECT_EQ(b.statesExplored, 33u);
    EXPECT_EQ(b.transitionsTaken, 59u);
    EXPECT_LT(b.statesExplored, a.statesExplored);
}

TEST(StoreModel, IgnoringTheCounterAdmitsStaleReplay)
{
    // One machine: the only counter-dependent defence left is the
    // stale-replay rejection (no migration partner exists).
    StoreModelConfig cfg;
    cfg.machines = 1;
    cfg.mutation = StoreMutation::ignoreCounter;
    const ExploreResult result = bfs(StoreLifecycleModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("stale replay"),
              std::string::npos)
        << result.counterexample->str();
    // BFS yields a minimal trace; the shortest attack is admit, open,
    // commit, crash, replay the epoch-0 image, reopen.
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{
                  "admit(0)", "open(0)", "commit(0)", "crashMidCommit(0)",
                  "replayStale(0,epoch=0)", "open(0)"}));
}

TEST(StoreModel, IgnoringTheCounterAlsoResurrectsMigratedSources)
{
    // With two machines the *shortest* counter-mutation attack is
    // reopening a migrated-away source: its directory is intact and
    // only the unmatched counter advance bricks it.
    StoreModelConfig cfg;
    cfg.mutation = StoreMutation::ignoreCounter;
    const ExploreResult result = bfs(StoreLifecycleModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("live replicas"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"admit(0)", "open(0)", "admit(1)",
                                        "migrate(0->1)", "open(0)"}));
}

TEST(StoreModel, SkippingInvalidationLeavesTwoLiveReplicas)
{
    StoreModelConfig cfg;
    cfg.mutation = StoreMutation::skipInvalidate;
    const ExploreResult result = bfs(StoreLifecycleModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("live replicas"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"admit(0)", "open(0)", "admit(1)",
                                        "migrate(0->1)", "open(0)"}));
}

TEST(StoreModel, OpenWithoutAdmissionIsCaught)
{
    StoreModelConfig cfg;
    cfg.mutation = StoreMutation::openWithoutAdmission;
    const ExploreResult result = bfs(StoreLifecycleModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(
        result.counterexample->violation.find("without an admitted"),
        std::string::npos)
        << result.counterexample->str();
    // No commit is needed: open on the unadmitted machine violates
    // invariant 1 immediately.
    EXPECT_EQ(result.counterexample->trace,
              std::vector<std::string>{"open(0)"});
}

TEST(StoreModel, MutationNamesAreStable)
{
    EXPECT_STREQ(storeMutationName(StoreMutation::none), "none");
    EXPECT_STREQ(storeMutationName(StoreMutation::ignoreCounter),
                 "ignore-counter");
    EXPECT_STREQ(storeMutationName(StoreMutation::skipInvalidate),
                 "skip-invalidate");
    EXPECT_STREQ(storeMutationName(StoreMutation::openWithoutAdmission),
                 "open-without-admission");
}

} // namespace
} // namespace mintcb::verify
