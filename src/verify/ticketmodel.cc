/**
 * @file
 * Session-ticket model: transitions and act-level invariants.
 */

#include "verify/ticketmodel.hh"

#include <bitset>
#include <sstream>

namespace mintcb::verify
{

namespace
{

std::uint8_t
bit(std::uint8_t epoch)
{
    return static_cast<std::uint8_t>(1u << epoch);
}

std::string
frameName(int t, std::uint8_t epoch)
{
    return "t" + std::to_string(t) + "@" + std::to_string(epoch);
}

} // namespace

bool
TicketModel::admits(const World &w, int g, int t, std::uint8_t epoch) const
{
    const Ticket &k = w.tickets[static_cast<std::size_t>(t)];
    const bool tableHolds =
        config_.mutation == TicketMutation::sharedTable || k.issuer == g;
    const bool fresh =
        config_.mutation == TicketMutation::ignoreExpiry || !k.expired;
    return tableHolds && fresh && k.epoch == epoch;
}

void
TicketModel::admit(Successor &s, int g, int t, std::uint8_t epoch) const
{
    Ticket &k = s.world.tickets[static_cast<std::size_t>(t)];
    // The epoch the ticket would be at had every admitted resume
    // advanced it: the ground truth "current epoch" of invariant 2.
    const auto current =
        static_cast<std::uint8_t>(std::bitset<8>(k.admitted).count());
    if ((k.admitted & bit(epoch)) != 0) {
        s.violation = "recorded resume frame " + frameName(t, epoch) +
                      " admitted twice (replay)";
    } else if (k.issuer != g) {
        s.violation = "ticket " + std::to_string(t) + " issued by gateway " +
                      std::to_string(k.issuer) + " admitted at gateway " +
                      std::to_string(g);
    } else if (k.expired) {
        s.violation = "ticket " + std::to_string(t) +
                      " admitted after its expiry";
    } else if (epoch != current) {
        s.violation = "ticket " + std::to_string(t) + " admitted at epoch " +
                      std::to_string(epoch) + ", current epoch is " +
                      std::to_string(current);
    }
    k.admitted = static_cast<std::uint8_t>(k.admitted | bit(epoch));
    if (config_.mutation != TicketMutation::noEpochAdvance)
        ++k.epoch;
}

/** Enumerate every action enabled in @p w. */
std::vector<TicketModel::Successor>
TicketModel::successors(const World &w) const
{
    std::vector<Successor> out;
    auto add = [&](std::string action) -> Successor & {
        out.push_back(Successor{std::move(action), w, {}});
        return out.back();
    };
    const int tickets = static_cast<int>(w.tickets.size());

    if (w.clientConn < 0) {
        // A full mutual attestation admits the client; the gateway
        // issues a fresh ticket at epoch 0, which the client keeps.
        for (int g = 0; g < gateways && tickets < maxTickets; ++g) {
            Successor &s = add("handshake(" + std::to_string(g) + ")");
            s.world.tickets.push_back(Ticket{g, 0, false, 0, 0});
            s.world.clientConn = g;
            s.world.held = tickets;
            s.world.heldEpoch = 0;
        }
        // A returning client resumes at the gateway that issued its
        // ticket. The attacker records the frame on the wire. A
        // refusal drops the ticket (the client then falls back to a
        // full handshake).
        if (w.held >= 0 && w.heldEpoch < config_.maxEpoch) {
            const int t = w.held;
            const std::uint8_t e = w.heldEpoch;
            const int g = w.tickets[static_cast<std::size_t>(t)].issuer;
            Successor &s = add("resume(" + frameName(t, e) + ")");
            Ticket &k = s.world.tickets[static_cast<std::size_t>(t)];
            k.recorded = static_cast<std::uint8_t>(k.recorded | bit(e));
            if (admits(w, g, t, e)) {
                admit(s, g, t, e);
                s.world.clientConn = g;
                s.world.heldEpoch = static_cast<std::uint8_t>(e + 1);
            } else {
                s.world.held = -1;
                s.world.heldEpoch = 0;
            }
        }
    } else {
        // Work on the admitted session, then goodbye.
        add("submit");
        add("bye").world.clientConn = -1;
    }

    // A submit on a connection that never authenticated or resumed:
    // every gateway refuses it, leaving the world as it was. Invariant
    // 1 holds because a session exists only after handshake or an
    // admitted resume.
    for (int g = 0; g < gateways; ++g)
        add("submitUnauthed(" + std::to_string(g) + ")");

    for (int t = 0; t < tickets; ++t) {
        const Ticket &k = w.tickets[static_cast<std::size_t>(t)];
        // The issuer's clock passes the ticket's expiry.
        if (!k.expired)
            add("expire(t" + std::to_string(t) + ")")
                .world.tickets[static_cast<std::size_t>(t)]
                .expired = true;
        for (int g = 0; g < gateways; ++g) {
            // Replay any recorded resume frame to any gateway.
            for (std::uint8_t e = 0; e <= config_.maxEpoch; ++e) {
                if ((k.recorded & bit(e)) == 0)
                    continue;
                Successor &s = add("replay(" + frameName(t, e) + "->" +
                                   std::to_string(g) + ")");
                if (admits(w, g, t, e))
                    admit(s, g, t, e);
            }
            // Present the ticket, with a proof for its current epoch,
            // to a gateway that did not issue it.
            if (g != k.issuer) {
                Successor &s = add("present(" + frameName(t, k.epoch) +
                                   "->" + std::to_string(g) + ")");
                if (admits(w, g, t, k.epoch))
                    admit(s, g, t, k.epoch);
            }
        }
    }
    return out;
}

const char *
ticketMutationName(TicketMutation m)
{
    switch (m) {
    case TicketMutation::none:
        return "none";
    case TicketMutation::noEpochAdvance:
        return "no-epoch-advance";
    case TicketMutation::ignoreExpiry:
        return "ignore-expiry";
    case TicketMutation::sharedTable:
        return "shared-table";
    }
    return "?";
}

std::string
TicketModel::key(const World &w) const
{
    std::ostringstream os;
    for (const Ticket &k : w.tickets) {
        os << k.issuer << ':' << int(k.epoch) << ':' << k.expired << ':'
           << int(k.recorded) << ':' << int(k.admitted) << '|';
    }
    os << w.clientConn << ':' << w.held << ':' << int(w.heldEpoch);
    return os.str();
}

std::string
TicketModel::dump(const World &w) const
{
    std::ostringstream os;
    for (std::size_t t = 0; t < w.tickets.size(); ++t) {
        const Ticket &k = w.tickets[t];
        os << "ticket " << t << ": issuer=" << k.issuer
           << " epoch=" << int(k.epoch)
           << (k.expired ? " expired" : " live")
           << " recorded=" << std::bitset<8>(k.recorded)
           << " admitted=" << std::bitset<8>(k.admitted) << '\n';
    }
    os << "client: "
       << (w.clientConn < 0 ? std::string("idle")
                            : "session at " + std::to_string(w.clientConn))
       << ", holds "
       << (w.held < 0 ? std::string("no ticket")
                      : frameName(w.held, w.heldEpoch))
       << '\n';
    return os.str();
}

} // namespace mintcb::verify
