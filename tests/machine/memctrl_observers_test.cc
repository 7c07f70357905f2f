/**
 * @file
 * The memory controller's access-observer fan-out: any number of
 * observers see every mediated access (page chunk by page chunk, with
 * sub-page byte ranges), attach/detach are idempotent, and -- the
 * regression the multiplexer exists for -- attaching a second observer
 * no longer silently displaces the first (the old single-slot
 * setAccessObserver footgun).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "machine/machine.hh"
#include "machine/memctrl.hh"

namespace mintcb::machine
{
namespace
{

struct Seen
{
    CpuId cpu = 0;
    PageNum page = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    bool isWrite = false;
    bool granted = false;
};

class RecordingObserver final : public MemAccessObserver
{
  public:
    void
    onAccess(const Agent &agent, PageNum page, std::uint32_t offset,
             std::uint32_t len, bool isWrite, bool granted) override
    {
        seen.push_back(
            {agent.cpu, page, offset, len, isWrite, granted});
    }

    std::vector<Seen> seen;
};

class ObserverFanOut : public ::testing::Test
{
  protected:
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
};

TEST_F(ObserverFanOut, EveryAttachedObserverSeesEveryAccess)
{
    RecordingObserver a;
    RecordingObserver b;
    m.memctrl().accessObservers().add(&a);
    m.memctrl().accessObservers().add(&b);
    EXPECT_EQ(m.memctrl().accessObservers().size(), 2u);

    ASSERT_TRUE(m.readAs(0, pageBase(3) + 100, 8).ok());
    ASSERT_EQ(a.seen.size(), 1u);
    ASSERT_EQ(b.seen.size(), 1u);
    EXPECT_EQ(a.seen[0].page, 3u);
    EXPECT_EQ(b.seen[0].page, 3u);
    EXPECT_EQ(a.seen[0].offset, 100u);
    EXPECT_EQ(a.seen[0].len, 8u);
    EXPECT_FALSE(a.seen[0].isWrite);
    EXPECT_TRUE(a.seen[0].granted);

    m.memctrl().accessObservers().remove(&a);
    m.memctrl().accessObservers().remove(&b);
}

TEST_F(ObserverFanOut, SecondObserverNoLongerDisplacesTheFirst)
{
    // The old single-slot setAccessObserver() regression: telemetry
    // attaching after the race detector silently disconnected it.
    RecordingObserver first;
    RecordingObserver second;
    m.memctrl().accessObservers().add(&first);
    m.memctrl().accessObservers().add(&second);

    ASSERT_TRUE(m.writeAs(0, pageBase(5), {1, 2, 3}).ok());
    EXPECT_EQ(first.seen.size(), 1u)
        << "first observer was displaced by the second";
    EXPECT_EQ(second.seen.size(), 1u);
    EXPECT_TRUE(first.seen[0].isWrite);
    EXPECT_EQ(first.seen[0].len, 3u);

    m.memctrl().accessObservers().remove(&first);
    m.memctrl().accessObservers().remove(&second);
}

TEST_F(ObserverFanOut, AddIsIdempotentAndIgnoresNull)
{
    RecordingObserver obs;
    m.memctrl().accessObservers().add(&obs);
    m.memctrl().accessObservers().add(&obs); // no duplicate callbacks
    m.memctrl().accessObservers().add(nullptr);
    EXPECT_EQ(m.memctrl().accessObservers().size(), 1u);

    ASSERT_TRUE(m.readAs(0, pageBase(1), 4).ok());
    EXPECT_EQ(obs.seen.size(), 1u);

    m.memctrl().accessObservers().remove(&obs);
    m.memctrl().accessObservers().remove(&obs); // idempotent
    EXPECT_EQ(m.memctrl().accessObservers().size(), 0u);
    EXPECT_FALSE(m.memctrl().accessObservers().contains(&obs));

    ASSERT_TRUE(m.readAs(0, pageBase(1), 4).ok());
    EXPECT_EQ(obs.seen.size(), 1u) << "detached observer still called";
}

TEST_F(ObserverFanOut, PageSpanningAccessReportsClippedChunks)
{
    RecordingObserver obs;
    m.memctrl().accessObservers().add(&obs);

    // 64 bytes straddling the page 7 / page 8 boundary: one callback
    // per page, each with the byte range inside that page.
    const PhysAddr addr = pageBase(8) - 24;
    ASSERT_TRUE(m.readAs(0, addr, 64).ok());
    ASSERT_EQ(obs.seen.size(), 2u);
    EXPECT_EQ(obs.seen[0].page, 7u);
    EXPECT_EQ(obs.seen[0].offset, pageSize - 24);
    EXPECT_EQ(obs.seen[0].len, 24u);
    EXPECT_EQ(obs.seen[1].page, 8u);
    EXPECT_EQ(obs.seen[1].offset, 0u);
    EXPECT_EQ(obs.seen[1].len, 40u);

    m.memctrl().accessObservers().remove(&obs);
}

TEST_F(ObserverFanOut, ZeroLengthProbeReportsItsOffset)
{
    RecordingObserver obs;
    m.memctrl().accessObservers().add(&obs);
    ASSERT_TRUE(m.readAs(0, pageBase(2) + 60, 0).ok());
    ASSERT_EQ(obs.seen.size(), 1u);
    EXPECT_EQ(obs.seen[0].offset, 60u);
    EXPECT_EQ(obs.seen[0].len, 0u);
    m.memctrl().accessObservers().remove(&obs);
}

TEST_F(ObserverFanOut, DeniedAccessesAreReportedAsNotGranted)
{
    RecordingObserver obs;
    m.memctrl().accessObservers().add(&obs);

    // CPU 1 owns page 9: CPU 0's probe is refused by the ACL table,
    // and the observer sees the denied attempt (the address leaks to
    // an adversary whether or not the access succeeds).
    ASSERT_TRUE(m.memctrl().aclAcquire({9}, /*cpu=*/1).ok());
    ASSERT_FALSE(m.readAs(0, pageBase(9) + 16, 4).ok());
    ASSERT_EQ(obs.seen.size(), 1u);
    EXPECT_EQ(obs.seen[0].page, 9u);
    EXPECT_EQ(obs.seen[0].offset, 16u);
    EXPECT_FALSE(obs.seen[0].granted);

    ASSERT_TRUE(m.memctrl().aclRelease({9}).ok());
    m.memctrl().accessObservers().remove(&obs);
}

TEST_F(ObserverFanOut, ObserversAreNotifiedInAttachOrder)
{
    std::vector<int> order;
    class Tagger final : public MemAccessObserver
    {
      public:
        Tagger(std::vector<int> &order, int tag)
            : order_(order), tag_(tag)
        {
        }
        void
        onAccess(const Agent &, PageNum, std::uint32_t, std::uint32_t,
                 bool, bool) override
        {
            order_.push_back(tag_);
        }

      private:
        std::vector<int> &order_;
        int tag_;
    };
    Tagger t1(order, 1);
    Tagger t2(order, 2);
    m.memctrl().accessObservers().add(&t1);
    m.memctrl().accessObservers().add(&t2);
    ASSERT_TRUE(m.readAs(0, pageBase(4), 1).ok());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    m.memctrl().accessObservers().remove(&t1);
    m.memctrl().accessObservers().remove(&t2);
}

} // namespace
} // namespace mintcb::machine
