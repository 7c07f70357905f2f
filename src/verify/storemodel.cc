/**
 * @file
 * Store-lifecycle model: transitions and state predicates.
 */

#include "verify/storemodel.hh"

#include <functional>
#include <sstream>

namespace mintcb::verify
{

/** Invariants 1 and 3 are state predicates, checked on every state. */
std::string
StoreLifecycleModel::checkStatePredicates(const World &w)
{
    std::size_t liveReplicas = 0;
    for (std::size_t i = 0; i < w.replicas.size(); ++i) {
        const Replica &r = w.replicas[i];
        if (r.live && !r.admitted) {
            return "machine " + std::to_string(i) +
                   " unsealed without an admitted identity PAL";
        }
        if (r.live && r.hasData)
            ++liveReplicas;
    }
    if (liveReplicas > 1) {
        return std::to_string(liveReplicas) +
               " live replicas of one dataset (migration must leave "
               "exactly one)";
    }
    return {};
}

/** Enumerate every action enabled in @p w. */
std::vector<StoreLifecycleModel::Successor>
StoreLifecycleModel::successors(const World &w, const StoreModelConfig &cfg)
{
    std::vector<Successor> out;
    const auto n = w.replicas.size();

    auto add = [&](std::string action,
                   const std::function<void(World &, Successor &)> &fn) {
        Successor s;
        s.action = std::move(action);
        s.world = w;
        fn(s.world, s);
        out.push_back(std::move(s));
    };

    for (std::size_t i = 0; i < n; ++i) {
        const Replica &r = w.replicas[i];
        const std::string mi = std::to_string(i);

        // Late-launch the identity PAL; a one-way gate.
        if (!r.admitted) {
            add("admit(" + mi + ")",
                [i](World &nw, Successor &) { nw.replicas[i].admitted = true; });
        }

        // Open: unseal the disk state and serve it. The real engine
        // refuses when the sealed epoch trails the hardware counter
        // (rollback) and forward-repairs a counter exactly one behind
        // (commit durable, increment lost).
        const bool admissionOk =
            r.admitted ||
            cfg.mutation == StoreMutation::openWithoutAdmission;
        if (!r.live && r.hasData && admissionOk) {
            const bool counterOk =
                cfg.mutation == StoreMutation::ignoreCounter ||
                (r.diskEpoch >= r.counter &&
                 r.diskEpoch <= r.counter + 1);
            if (counterOk) {
                add("open(" + mi + ")", [i](World &nw, Successor &s) {
                    Replica &nr = nw.replicas[i];
                    if (nr.counter + 1 == nr.diskEpoch)
                        nr.counter = nr.diskEpoch; // forward repair
                    nr.live = true;
                    if (nr.diskEpoch < nr.servedFloor) {
                        s.violation =
                            "machine " + std::to_string(i) +
                            " served epoch " +
                            std::to_string(nr.diskEpoch) +
                            " after already serving epoch " +
                            std::to_string(nr.servedFloor) +
                            " (stale replay accepted)";
                    }
                    if (nr.diskEpoch > nr.servedFloor)
                        nr.servedFloor = nr.diskEpoch;
                });
            }
        }

        if (r.live && r.diskEpoch < cfg.maxEpoch) {
            // A durable commit: epoch and counter advance together,
            // and the live store is now serving the new epoch.
            add("commit(" + mi + ")", [i](World &nw, Successor &) {
                Replica &nr = nw.replicas[i];
                ++nr.diskEpoch;
                ++nr.counter;
                nr.servedFloor = nr.diskEpoch;
            });
            // Power loss between fsync and counter increment: the
            // commit is on disk, the counter is one behind. commit()
            // never returned, so the floor does NOT advance -- the
            // freshness guarantee covers exactly the commits that were
            // acknowledged.
            add("crashMidCommit(" + mi + ")",
                [i](World &nw, Successor &) {
                    Replica &nr = nw.replicas[i];
                    ++nr.diskEpoch;
                    nr.live = false;
                });
        }

        if (r.live) {
            add("crash(" + mi + ")", [i](World &nw, Successor &) {
                nw.replicas[i].live = false;
            });
        }

        // The adversary swaps in any older disk image it captured.
        // Only the directory rolls back -- never the chip.
        if (cfg.adversaryReplay && !r.live && r.hasData) {
            for (std::uint64_t e = 0; e < r.diskEpoch; ++e) {
                add("replayStale(" + mi + ",epoch=" + std::to_string(e) +
                        ")",
                    [i, e](World &nw, Successor &) {
                        nw.replicas[i].diskEpoch = e;
                    });
            }
        }

        // Attested migration to an empty admitted target: the target
        // adopts at a fresh epoch and commits; the source's counter
        // advances with no matching commit, bricking its directory.
        if (r.live && r.hasData) {
            for (std::size_t j = 0; j < n; ++j) {
                const Replica &t = w.replicas[j];
                if (j == i || t.live || t.hasData || !t.admitted)
                    continue;
                add("migrate(" + mi + "->" + std::to_string(j) + ")",
                    [i, j, &cfg](World &nw, Successor &s) {
                        Replica &src = nw.replicas[i];
                        Replica &dst = nw.replicas[j];
                        src.live = false;
                        if (cfg.mutation !=
                            StoreMutation::skipInvalidate) {
                            ++src.counter;
                            src.invalidated = true;
                        }
                        dst.hasData = true;
                        dst.diskEpoch = dst.counter + 1;
                        dst.counter = dst.diskEpoch;
                        dst.live = true;
                        if (dst.diskEpoch < dst.servedFloor) {
                            s.violation =
                                "migration target served epoch " +
                                std::to_string(dst.diskEpoch) +
                                " below its floor " +
                                std::to_string(dst.servedFloor);
                        }
                        if (dst.diskEpoch > dst.servedFloor)
                            dst.servedFloor = dst.diskEpoch;
                    });
            }
        }
    }
    return out;
}

const char *
storeMutationName(StoreMutation m)
{
    switch (m) {
    case StoreMutation::none:
        return "none";
    case StoreMutation::ignoreCounter:
        return "ignore-counter";
    case StoreMutation::skipInvalidate:
        return "skip-invalidate";
    case StoreMutation::openWithoutAdmission:
        return "open-without-admission";
    }
    return "?";
}

std::string
StoreLifecycleModel::key(const World &w) const
{
    std::ostringstream os;
    for (const Replica &r : w.replicas) {
        os << r.admitted << r.live << r.invalidated << r.hasData
           << ':' << r.diskEpoch << ':' << r.counter << ':'
           << r.servedFloor << '|';
    }
    return os.str();
}

std::string
StoreLifecycleModel::dump(const World &w) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < w.replicas.size(); ++i) {
        const Replica &r = w.replicas[i];
        os << "machine " << i << ": "
           << (r.admitted ? "admitted" : "unadmitted") << ' '
           << (r.live ? "live" : "closed")
           << (r.invalidated ? " invalidated" : "")
           << (r.hasData ? " data" : " empty") << " epoch="
           << r.diskEpoch << " counter=" << r.counter
           << " servedFloor=" << r.servedFloor << '\n';
    }
    return os.str();
}

} // namespace mintcb::verify
