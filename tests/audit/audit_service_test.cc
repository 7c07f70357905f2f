/**
 * @file
 * Audit observers are pure: attaching the full adversary complement to
 * every shard machine of the execution service must leave the report
 * bytes identical -- for all five backends, at 1/2/4/8 workers --
 * while still recording traffic. This is the guarantee that lets
 * mintcb-audit measure the zoo without perturbing what it measures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "backend/registry.hh"
#include "common/hex.hh"
#include "sea/service.hh"
#include "verify/adversary.hh"

namespace mintcb::verify
{
namespace
{

using backend::BackendRegistry;
using machine::Machine;
using machine::PlatformId;

/** Attaches all three adversary models to every machine the service
 *  creates (the front machine directly, worker shards through
 *  onShardCreated). Destroy *before* the service so detach() runs
 *  while the shard machines are alive -- declare it after the service
 *  object. */
class ShardAdversaries final : public sea::ServiceObserver
{
  public:
    void
    watch(Machine &machine)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (AdversaryKind kind : adversaryKinds) {
            auto adv = makeAdversary(kind, 0,
                                     machine.memctrl().pages() - 1,
                                     Granularity::cacheLine);
            adv->attach(machine);
            adversaries_.push_back(std::move(adv));
        }
    }

    std::uint64_t
    viewVolume() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::uint64_t total = 0;
        for (const auto &adv : adversaries_)
            total += adv->view().size();
        return total;
    }

    void onDrainBegin(std::size_t) override {}
    void onDrainEnd(std::size_t) override {}
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}
    void
    onShardCreated(std::uint32_t, Machine &machine,
                   rec::SecureExecutive &) override
    {
        watch(machine);
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Adversary>> adversaries_;
};

sea::PalRequest
zooRequest(const std::string &pal_name, const std::string &backend,
           const Bytes &input)
{
    sea::Pal pal = sea::Pal::fromLogic(
        pal_name, 4 * 1024, [](sea::PalContext &ctx) {
            ctx.compute(Duration::millis(2));
            Bytes out = ctx.input();
            out.push_back(0x5a);
            ctx.setOutput(std::move(out));
            return okStatus();
        });
    sea::PalRequest req(std::move(pal), input);
    req.backend = backend;
    req.dataPages = 2;
    req.slicedCompute = Duration::millis(2);
    req.secureBody = [](rec::PalHooks &,
                        const Bytes &in) -> Result<Bytes> {
        Bytes out = in;
        out.push_back(0x5a);
        return out;
    };
    return req;
}

TEST(AuditService, ObserversNeverPerturbReportsAtAnyWorkerCount)
{
    for (const std::string &name :
         BackendRegistry::standard().names()) {
        const bool can_quote =
            BackendRegistry::standard()
                .find(name)
                ->info()
                .capabilities.has(sea::Capability::attestation);

        // Reports as a function of (workers, observed): the audit
        // claims the second argument is invisible to the first.
        auto run = [&](std::uint32_t workers, bool observed) {
            Machine m =
                Machine::forPlatform(PlatformId::recTestbed, 7);
            sea::ServiceConfig config;
            config.workers = workers;
            sea::ExecutionService svc(m, config);
            ShardAdversaries watchers; // after svc: destroyed first
            if (observed) {
                watchers.watch(m); // workers == 1 drains inline
                svc.observers().add(&watchers);
            }
            for (int i = 0; i < 6; ++i) {
                sea::PalRequest req = zooRequest(
                    name + "-audit-" + std::to_string(i), name,
                    asciiBytes("input-" + std::to_string(i)));
                req.wantQuote = can_quote && (i % 3 == 0);
                EXPECT_TRUE(svc.submit(std::move(req)).ok()) << name;
            }
            std::vector<Bytes> wires;
            auto reports = svc.drain();
            EXPECT_TRUE(reports.ok()) << name;
            if (reports.ok())
                for (const sea::ExecutionReport &r : *reports)
                    wires.push_back(r.encode());
            if (observed) {
                EXPECT_GT(watchers.viewVolume(), 0u)
                    << name << " workers=" << workers
                    << ": adversaries attached but saw no traffic";
            }
            svc.observers().remove(&watchers);
            return wires;
        };

        const std::vector<Bytes> baseline = run(1, /*observed=*/false);
        ASSERT_EQ(baseline.size(), 6u) << name;
        for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
            const std::vector<Bytes> watched =
                run(workers, /*observed=*/true);
            ASSERT_EQ(watched.size(), baseline.size())
                << name << " workers=" << workers;
            for (std::size_t i = 0; i < baseline.size(); ++i) {
                EXPECT_EQ(baseline[i], watched[i])
                    << name << " report " << i
                    << " perturbed by audit observers at workers="
                    << workers;
            }
        }
    }
}

} // namespace
} // namespace mintcb::verify
