/**
 * @file
 * Sharded ExecutionService tests: worker-count determinism, affinity
 * pinning, per-shard happens-before discipline through the fork/join
 * edges, per-shard session resumption, and clean teardown.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hex.hh"
#include "sea/service.hh"
#include "verify/race.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

Pal
shardPal(const std::string &name)
{
    return Pal::fromLogic(name, 4 * 1024,
                          [](PalContext &) { return okStatus(); });
}

PalRequest
shardRequest(const std::string &name, Duration compute,
             const Bytes &input = {})
{
    PalRequest req(shardPal(name), input);
    req.slicedCompute = compute;
    req.secureBody = [](rec::PalHooks &,
                        const Bytes &in) -> Result<Bytes> {
        Bytes out = in;
        out.push_back(0x5a);
        return out;
    };
    return req;
}

/** Submit a mixed workload of @p count distinct PALs. */
void
submitWorkload(ExecutionService &svc, int count, const std::string &tag)
{
    for (int i = 0; i < count; ++i) {
        PalRequest req = shardRequest(
            tag + "-" + std::to_string(i), Duration::millis(1 + i % 3),
            asciiBytes("in-" + std::to_string(i)));
        req.priority = i % 2;
        req.wantQuote = (i % 5 == 0);
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
}

TEST(ShardedService, WorkerCountSweepIsByteIdentical)
{
    // The whole point of the fixed-shard design: reports depend on the
    // seed, the submission sequence, and config.shards -- never on how
    // many host threads executed the shard campaigns.
    auto run = [](std::uint32_t workers) {
        Machine m = Machine::forPlatform(PlatformId::recTestbed, 42);
        ServiceConfig config;
        config.workers = workers;
        ExecutionService svc(m, config);
        std::vector<Bytes> wires;
        submitWorkload(svc, 10, "det");
        auto first = svc.drain();
        EXPECT_TRUE(first.ok());
        for (const ExecutionReport &r : *first)
            wires.push_back(r.encode());
        submitWorkload(svc, 6, "det2"); // resumed sessions, drain 2
        auto second = svc.drain();
        EXPECT_TRUE(second.ok());
        for (const ExecutionReport &r : *second)
            wires.push_back(r.encode());
        return std::make_pair(wires, svc.metrics().busy.ticks());
    };

    const auto baseline = run(1);
    ASSERT_EQ(baseline.first.size(), 16u);
    for (std::uint32_t workers : {2u, 4u, 8u}) {
        const auto other = run(workers);
        ASSERT_EQ(other.first.size(), baseline.first.size());
        for (std::size_t i = 0; i < baseline.first.size(); ++i) {
            EXPECT_EQ(baseline.first[i], other.first[i])
                << "report " << i << " diverged at workers="
                << workers;
        }
        // Simulated service time reconciles identically too.
        EXPECT_EQ(baseline.second, other.second)
            << "busy time diverged at workers=" << workers;
    }

    // Sanity: the workload genuinely spread across several shards.
    std::set<std::uint32_t> shards;
    Machine m = Machine::forPlatform(PlatformId::recTestbed, 42);
    ServiceConfig config;
    config.workers = 2;
    ExecutionService svc(m, config);
    submitWorkload(svc, 10, "det");
    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    for (const ExecutionReport &r : *reports)
        shards.insert(r.shard);
    EXPECT_GT(shards.size(), 1u);
    EXPECT_GT(svc.poolStats().executed, 0u);
}

TEST(ShardedService, AffinityPinsRequestsToOneShard)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.workers = 4;
    ExecutionService svc(m, config);

    // Explicit affinity keys: distinct PALs, one shared key.
    const std::uint64_t key = 5;
    const std::uint32_t want = ExecutionService::shardOf(key, config.shards);
    for (int i = 0; i < 6; ++i) {
        PalRequest req = shardRequest("pin-" + std::to_string(i),
                                      Duration::millis(1));
        req.affinity = key;
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    for (const ExecutionReport &r : *reports)
        EXPECT_EQ(r.shard, want) << r.palName;

    // Default affinity: the PAL's name routes it, drain after drain.
    PalRequest alpha1 = shardRequest("alpha", Duration::millis(1));
    const std::uint32_t alpha_shard = ExecutionService::shardOf(
        ExecutionService::affinityOf(alpha1), config.shards);
    ASSERT_TRUE(svc.submit(std::move(alpha1)).ok());
    auto first = svc.drain();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->front().shard, alpha_shard);
    ASSERT_TRUE(
        svc.submit(shardRequest("alpha", Duration::millis(2))).ok());
    auto second = svc.drain();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->front().shard, alpha_shard);
}

/** Attaches one HbRaceDetector per shard machine and feeds it the
 *  service's fork/join edges. onShardBegin/onShardEnd run on worker
 *  threads, but each shard's detector is only ever touched by the one
 *  worker running that shard's campaign (plus the drain thread while
 *  no campaign is in flight), so no extra locking is needed. */
class ShardProbe : public ServiceObserver
{
  public:
    void onDrainBegin(std::size_t) override {}
    void onDrainEnd(std::size_t) override {}
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}

    void onShardCreated(std::uint32_t shard, machine::Machine &machine,
                        rec::SecureExecutive &exec) override
    {
        auto detector =
            std::make_unique<verify::HbRaceDetector>(machine.cpuCount());
        detector->attach(machine.memctrl());
        detector->attach(exec);
        detectors_[shard] = std::move(detector);
    }
    void onShardBegin(std::uint32_t shard, std::size_t) override
    {
        detectors_.at(shard)->onShardFork(shard);
    }
    void onShardEnd(std::uint32_t shard, std::size_t) override
    {
        detectors_.at(shard)->onShardJoin(shard);
    }

    const std::map<std::uint32_t,
                   std::unique_ptr<verify::HbRaceDetector>> &
    detectors() const
    {
        return detectors_;
    }

  private:
    std::map<std::uint32_t, std::unique_ptr<verify::HbRaceDetector>>
        detectors_;
};

TEST(ShardedService, PerShardHappensBeforeDisciplineHolds)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.workers = 4;
    ExecutionService svc(m, config);
    ShardProbe probe;
    svc.observers().add(&probe);

    submitWorkload(svc, 12, "hb");
    ASSERT_TRUE(svc.drain().ok());
    submitWorkload(svc, 12, "hb"); // same names: same shards again
    ASSERT_TRUE(svc.drain().ok());

    ASSERT_FALSE(probe.detectors().empty());
    for (const auto &[shard, detector] : probe.detectors()) {
        EXPECT_TRUE(detector->races().empty())
            << "shard " << shard << ": " << detector->str();
        EXPECT_GT(detector->accessesChecked(), 0u) << "shard " << shard;
        EXPECT_GT(detector->shardForks(), 0u) << "shard " << shard;
        EXPECT_EQ(detector->shardForks(), detector->shardJoins())
            << "shard " << shard;
    }
}

TEST(ShardedService, ShardSessionsResumeAcrossDrains)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.workers = 2;
    config.shards = 4;
    ExecutionService svc(m, config);

    // The same PAL names drain after drain: every shard that opened a
    // session in the first drain resumes it in the second.
    std::set<std::uint32_t> expected_shards;
    for (int i = 0; i < 8; ++i) {
        PalRequest probe = shardRequest("s-" + std::to_string(i),
                                        Duration::millis(1));
        expected_shards.insert(ExecutionService::shardOf(
            ExecutionService::affinityOf(probe), config.shards));
    }
    auto submit_all = [&svc] {
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(svc.submit(shardRequest("s-" + std::to_string(i),
                                                Duration::millis(1)))
                            .ok());
        }
    };
    submit_all();
    ASSERT_TRUE(svc.drain().ok());
    EXPECT_EQ(svc.metrics().sessionsAccepted, expected_shards.size());
    EXPECT_EQ(svc.metrics().sessionsResumed, 0u);

    submit_all();
    ASSERT_TRUE(svc.drain().ok());
    EXPECT_EQ(svc.metrics().sessionsAccepted, expected_shards.size());
    EXPECT_EQ(svc.metrics().sessionsResumed, expected_shards.size());
    EXPECT_EQ(svc.metrics().shardDrains, 2 * expected_shards.size());
}

/** Counts onRequestDone callbacks; every other milestone is ignored. */
class DoneCounter : public ServiceObserver
{
  public:
    void onDrainBegin(std::size_t) override {}
    void onDrainEnd(std::size_t) override {}
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}
    void onRequestDone(const ExecutionReport &) override { ++done; }

    std::size_t done = 0;
};

TEST(ShardedService, ShardedDrainFailurePropagates)
{
    // One failure contract for every worker count: PALs that ran are
    // counted and reach onRequestDone before the drain returns the
    // audit flush's error.
    for (std::uint32_t workers : {0u, 2u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        Machine m = Machine::forPlatform(PlatformId::recTestbed);
        ServiceConfig config;
        config.workers = workers;
        config.auditPcr = 99; // every audit flush is rejected
        ExecutionService svc(m, config);
        DoneCounter counter;
        svc.observers().add(&counter);

        // Sub-quantum PALs: each one runs to completion in one launch.
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(svc.submit(shardRequest("fail-" + std::to_string(i),
                                                Duration::micros(500)))
                            .ok());
        }
        auto reports = svc.drain();
        ASSERT_FALSE(reports.ok());
        EXPECT_EQ(svc.metrics().completed, 4u);
        EXPECT_EQ(svc.metrics().launches, 4u);
        EXPECT_EQ(counter.done, 4u);
        // Executed PALs are not requeued.
        EXPECT_EQ(svc.queueDepth(), 0u);
        auto again = svc.drain();
        ASSERT_TRUE(again.ok());
        EXPECT_TRUE(again->empty());
        EXPECT_EQ(svc.metrics().completed, 4u);
    }
}

TEST(ShardedService, TeardownWithQueuedRequestsIsClean)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.workers = 4;
    auto svc = std::make_unique<ExecutionService>(m, config);

    submitWorkload(*svc, 6, "warm");
    ASSERT_TRUE(svc->drain().ok()); // pool is live now
    submitWorkload(*svc, 6, "cold");
    EXPECT_EQ(svc->queueDepth(), 6u);
    svc.reset(); // must join the pool without draining the queue
}

} // namespace
} // namespace mintcb::sea
