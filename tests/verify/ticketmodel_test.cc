/**
 * @file
 * Session-ticket model-checker tests: the default model holds every
 * invariant exhaustively, and each seeded mutation is found with a
 * minimal counterexample naming the mechanism that was disabled.
 */

#include <gtest/gtest.h>

#include "verify/ticketmodel.hh"

namespace mintcb::verify
{
namespace
{

TEST(TicketModel, DefaultConfigHoldsEveryInvariant)
{
    const ExploreResult result = bfs(TicketModel{});
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_FALSE(result.truncated);
    // Exhaustive: handshakes at both gateways, resumes, byes, expiry,
    // and every replay and cross-gateway presentation interleave. The
    // exact counts are pinned to catch accidental pruning.
    EXPECT_EQ(result.statesExplored, 477u);
    EXPECT_EQ(result.transitionsTaken, 4856u);
}

TEST(TicketModel, RunIsDeterministic)
{
    const ExploreResult a = bfs(TicketModel{});
    const ExploreResult b = bfs(TicketModel{});
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsTaken, b.transitionsTaken);
}

TEST(TicketModel, MoreResumesPerTicketStillHold)
{
    TicketModelConfig cfg;
    cfg.maxEpoch = 3;
    const ExploreResult result = bfs(TicketModel{cfg});
    EXPECT_TRUE(result.ok()) << result.str();
    EXPECT_EQ(result.statesExplored, 875u);
    EXPECT_EQ(result.transitionsTaken, 10686u);
}

TEST(TicketModel, NotAdvancingTheEpochAdmitsAReplay)
{
    TicketModelConfig cfg;
    cfg.mutation = TicketMutation::noEpochAdvance;
    const ExploreResult result = bfs(TicketModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("admitted twice"),
              std::string::npos)
        << result.counterexample->str();
    // The shortest attack: one full handshake, a goodbye, one honest
    // resume the attacker records, and its replay.
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"handshake(0)", "bye", "resume(t0@0)",
                                        "replay(t0@0->0)"}));
}

TEST(TicketModel, IgnoringExpiryAdmitsAnExpiredTicket)
{
    TicketModelConfig cfg;
    cfg.mutation = TicketMutation::ignoreExpiry;
    const ExploreResult result = bfs(TicketModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("after its expiry"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"handshake(0)", "bye", "expire(t0)",
                                        "resume(t0@0)"}));
}

TEST(TicketModel, ASharedTableAdmitsAtASecondGateway)
{
    TicketModelConfig cfg;
    cfg.mutation = TicketMutation::sharedTable;
    const ExploreResult result = bfs(TicketModel{cfg});
    ASSERT_TRUE(result.counterexample.has_value()) << result.str();
    EXPECT_NE(result.counterexample->violation.find("admitted at gateway 1"),
              std::string::npos)
        << result.counterexample->str();
    EXPECT_EQ(result.counterexample->trace,
              (std::vector<std::string>{"handshake(0)", "present(t0@0->1)"}));
}

TEST(TicketModel, MutationNamesAreStable)
{
    EXPECT_STREQ(ticketMutationName(TicketMutation::none), "none");
    EXPECT_STREQ(ticketMutationName(TicketMutation::noEpochAdvance),
                 "no-epoch-advance");
    EXPECT_STREQ(ticketMutationName(TicketMutation::ignoreExpiry),
                 "ignore-expiry");
    EXPECT_STREQ(ticketMutationName(TicketMutation::sharedTable),
                 "shared-table");
}

} // namespace
} // namespace mintcb::verify
