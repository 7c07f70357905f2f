/**
 * @file
 * Exhaustive model checking of MGW1 session tickets (DESIGN.md
 * section 11.2).
 *
 * An abstract model of the gateway's resume verbs: two gateways, each
 * with its own ticket table, one honest client that holds at most one
 * ticket, and an attacker that records every resume frame the client
 * sends and replays any of them to either gateway. A full handshake
 * admits the client and makes the gateway issue a ticket at epoch 0; a
 * resume presents (ticket, epoch) and, when the gateway admits it,
 * both sides advance the epoch. Three invariants hold on every
 * transition:
 *
 *  1. no submit before auth or resume: a submit is accepted only on a
 *     connection the gateway admitted (the model has no other session,
 *     so an unauthenticated submit is a refusal that changes nothing);
 *  2. a resume is admitted only at the gateway that issued the ticket,
 *     at the ticket's current epoch, and before its expiry;
 *  3. no recorded resume frame is admitted twice.
 *
 * Seeded mutations disable one mechanism each, and the tests prove the
 * walk then finds the violation with a minimal counterexample, the
 * same discipline as verify/storemodel.hh. Both are walked by the one
 * engine in verify/bfs.hh.
 */

#ifndef MINTCB_VERIFY_TICKETMODEL_HH
#define MINTCB_VERIFY_TICKETMODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verify/bfs.hh"

namespace mintcb::verify
{

/** Seeded defects: each removes one mechanism the invariants rest on. */
enum class TicketMutation
{
    none,
    /** An admitted resume leaves the ticket's epoch where it was. */
    noEpochAdvance,
    /** The gateway admits a ticket past its expiry. */
    ignoreExpiry,
    /** Every gateway looks tickets up in one shared table. */
    sharedTable,
};

const char *ticketMutationName(TicketMutation m);

/** Model bounds. Two gateways, two tickets (one full handshake each)
 *  and two resumes per ticket are enough: every violation class shows
 *  up within one resume and one replay. */
struct TicketModelConfig
{
    /** Resumes per ticket are bounded by this epoch ceiling (at most
     *  7: the history variables hold one bit per epoch). */
    std::uint8_t maxEpoch = 2;

    TicketMutation mutation = TicketMutation::none;
};

/** The ticket life cycle as a verify::bfs model. */
class TicketModel
{
  public:
    /** One issued ticket, identified by its issue order. */
    struct Ticket
    {
        int issuer = 0;         //!< gateway that issued it
        std::uint8_t epoch = 0; //!< the issuer's current epoch for it
        bool expired = false;   //!< the issuer's clock passed its expiry
        /** @name History variables (not part of the real gateway). @{ */
        std::uint8_t recorded = 0; //!< epochs of resume frames sent
        std::uint8_t admitted = 0; //!< epochs of resume frames admitted
        /** @} */
    };

    struct World
    {
        std::vector<Ticket> tickets;
        /** The client's admitted session: -1 none, else the gateway
         *  index. */
        int clientConn = -1;
        /** The ticket the client holds (index into tickets), or -1,
         *  and the epoch the client believes it is at. */
        int held = -1;
        std::uint8_t heldEpoch = 0;
    };

    /** A candidate successor (see StoreLifecycleModel::Successor). */
    struct Successor
    {
        std::string action;
        World world;
        std::string violation;
    };

    using State = World;
    using Key = std::string;

    explicit TicketModel(TicketModelConfig config = {}) : config_(config)
    {
    }

    template <class Visit>
    Status
    initial(Visit &&visit) const
    {
        World world;
        visit(world, [&] { return world; });
        return okStatus();
    }

    template <class Step>
    Status
    expand(const World &from, Step &&step) const
    {
        for (Successor &s : successors(from)) {
            if (!step(s.action, s.world, s.violation,
                      [&] { return std::move(s.world); }))
                break;
        }
        return okStatus();
    }

    Key key(const World &w) const;
    /** Every invariant is a property of an act; states are all legal. */
    std::string check(const World &) const { return {}; }
    std::string dump(const World &w) const;

  private:
    static constexpr int gateways = 2;
    static constexpr int maxTickets = 2;

    std::vector<Successor> successors(const World &w) const;
    /** The gateway's admission check for a resume of ticket @p t at
     *  @p epoch presented to gateway @p g. */
    bool admits(const World &w, int g, int t, std::uint8_t epoch) const;
    /** Admit the resume in @p s.world and check invariants 2 and 3. */
    void admit(Successor &s, int g, int t, std::uint8_t epoch) const;

    TicketModelConfig config_;
};

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_TICKETMODEL_HH
