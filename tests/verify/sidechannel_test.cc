/**
 * @file
 * PageAccessTrace + accessPatternLeak contract tests: every LeakReport
 * edge case (empty, identical, divergent, strict prefix), cache-line
 * quantization, the recording window, and attach/detach hygiene.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/machine.hh"
#include "verify/sidechannel.hh"

namespace mintcb::verify
{
namespace
{

using machine::Machine;
using machine::PlatformId;

std::vector<PageAccess>
reads(std::initializer_list<PageNum> pages)
{
    std::vector<PageAccess> t;
    for (PageNum p : pages)
        t.push_back({p, 0, false});
    return t;
}

TEST(AccessPatternLeak, TwoEmptyTracesAreIdentical)
{
    const LeakReport r = accessPatternLeak({}, {});
    EXPECT_FALSE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 0u);
    EXPECT_EQ(r.lengthA, 0u);
    EXPECT_EQ(r.lengthB, 0u);
}

TEST(AccessPatternLeak, IdenticalTracesNeverLeak)
{
    const auto t = reads({3, 4, 3, 7});
    const LeakReport r = accessPatternLeak(t, t);
    EXPECT_FALSE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 0u);
    EXPECT_EQ(r.lengthA, 4u);
    EXPECT_EQ(r.lengthB, 4u);

    const LeakReport single =
        accessPatternLeak(reads({9}), reads({9}));
    EXPECT_FALSE(single.leaks);
}

TEST(AccessPatternLeak, FirstDivergenceIsTheSmallestDifferingIndex)
{
    const LeakReport r =
        accessPatternLeak(reads({3, 4, 5, 6}), reads({3, 4, 9, 6}));
    EXPECT_TRUE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 2u);
}

TEST(AccessPatternLeak, DirectionAndLineCountAsDivergence)
{
    // Same page, different direction: still distinguishable.
    const std::vector<PageAccess> a{{5, 0, false}};
    const std::vector<PageAccess> b{{5, 0, true}};
    EXPECT_TRUE(accessPatternLeak(a, b).leaks);

    // Same page, different cache line: distinguishable at line
    // granularity.
    const std::vector<PageAccess> c{{5, 1, false}};
    const std::vector<PageAccess> d{{5, 2, false}};
    const LeakReport r = accessPatternLeak(c, d);
    EXPECT_TRUE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 0u);
}

TEST(AccessPatternLeak, StrictPrefixLeaksThroughItsLength)
{
    const LeakReport r =
        accessPatternLeak(reads({3, 4}), reads({3, 4, 5}));
    EXPECT_TRUE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 2u); // == min(lengthA, lengthB)
    EXPECT_EQ(r.lengthA, 2u);
    EXPECT_EQ(r.lengthB, 3u);
}

TEST(AccessPatternLeak, EmptyVersusNonEmptyIsTheDegeneratePrefix)
{
    const LeakReport r = accessPatternLeak({}, reads({3}));
    EXPECT_TRUE(r.leaks);
    EXPECT_EQ(r.firstDivergence, 0u);
    EXPECT_EQ(r.lengthA, 0u);
    EXPECT_EQ(r.lengthB, 1u);
}

TEST(AccessPatternLeak, NoLeakImpliesEqualLengths)
{
    for (const auto &pair :
         {std::make_pair(reads({}), reads({})),
          std::make_pair(reads({1, 2}), reads({1, 2}))}) {
        const LeakReport r =
            accessPatternLeak(pair.first, pair.second);
        if (!r.leaks) {
            EXPECT_EQ(r.lengthA, r.lengthB);
            EXPECT_EQ(r.firstDivergence, 0u);
        }
    }
}

TEST(AccessPatternLeak, StrIsHumanReadable)
{
    EXPECT_NE(accessPatternLeak(reads({1}), reads({2}))
                  .str()
                  .find("LEAK"),
              std::string::npos);
    EXPECT_EQ(accessPatternLeak({}, {}).leaks, false);
    EXPECT_FALSE(accessPatternLeak({}, {}).str().empty());
}

TEST(Granularity, NamesAreStable)
{
    EXPECT_STREQ(granularityName(Granularity::page), "page");
    EXPECT_STREQ(granularityName(Granularity::cacheLine),
                 "cache-line");
}

TEST(PageAccessTrace, RecordsOnlyInsideTheWindow)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    PageAccessTrace trace(/*first_page=*/4, /*last_page=*/6);
    trace.attach(m);

    ASSERT_TRUE(m.readAs(0, pageBase(3), 8).ok());  // below window
    ASSERT_TRUE(m.readAs(0, pageBase(5), 8).ok());  // inside
    ASSERT_TRUE(m.writeAs(0, pageBase(6), {1}).ok()); // inside
    ASSERT_TRUE(m.readAs(0, pageBase(7), 8).ok());  // above window

    ASSERT_EQ(trace.accesses().size(), 2u);
    EXPECT_EQ(trace.accesses()[0], (PageAccess{5, 0, false}));
    EXPECT_EQ(trace.accesses()[1], (PageAccess{6, 0, true}));

    trace.clear();
    EXPECT_TRUE(trace.accesses().empty());
    EXPECT_EQ(trace.granularity(), Granularity::page);
    trace.detach();

    ASSERT_TRUE(m.readAs(0, pageBase(5), 8).ok());
    EXPECT_TRUE(trace.accesses().empty())
        << "detached trace still recording";
}

TEST(PageAccessTrace, CacheLineGranularityRecordsOneEntryPerLine)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    PageAccessTrace trace(0, 100, Granularity::cacheLine);
    trace.attach(m);

    // 130 bytes starting at line 1: touches lines 1, 2, 3.
    ASSERT_TRUE(m.readAs(0, pageBase(5) + 64, 130).ok());
    ASSERT_EQ(trace.accesses().size(), 3u);
    EXPECT_EQ(trace.accesses()[0], (PageAccess{5, 1, false}));
    EXPECT_EQ(trace.accesses()[1], (PageAccess{5, 2, false}));
    EXPECT_EQ(trace.accesses()[2], (PageAccess{5, 3, false}));

    // A zero-length probe still reveals its line.
    trace.clear();
    ASSERT_TRUE(m.readAs(0, pageBase(5) + 200, 0).ok());
    ASSERT_EQ(trace.accesses().size(), 1u);
    EXPECT_EQ(trace.accesses()[0].line, 200u / cacheLineSize);
}

TEST(PageAccessTrace, PageGranularityMergesLinesButKeepsOrder)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    PageAccessTrace trace(0, 100, Granularity::page);
    trace.attach(m);

    ASSERT_TRUE(m.readAs(0, pageBase(5) + 64, 130).ok());
    ASSERT_EQ(trace.accesses().size(), 1u)
        << "page granularity must not split by line";
    EXPECT_EQ(trace.accesses()[0].line, 0u);
}

TEST(PageAccessTrace, ReattachMovesBetweenMachines)
{
    Machine m1 = Machine::forPlatform(PlatformId::recTestbed);
    Machine m2 = Machine::forPlatform(PlatformId::recTestbed);
    PageAccessTrace trace(0, 100);
    trace.attach(m1);
    trace.attach(m2); // implicit detach from m1
    EXPECT_EQ(m1.memctrl().accessObservers().size(), 0u);
    EXPECT_EQ(m2.memctrl().accessObservers().size(), 1u);

    ASSERT_TRUE(m1.readAs(0, pageBase(5), 8).ok());
    EXPECT_TRUE(trace.accesses().empty());
    ASSERT_TRUE(m2.readAs(0, pageBase(5), 8).ok());
    EXPECT_EQ(trace.accesses().size(), 1u);
}

TEST(PageAccessTrace, DetachesOnDestruction)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    {
        PageAccessTrace trace(0, 100);
        trace.attach(m);
        EXPECT_EQ(m.memctrl().accessObservers().size(), 1u);
    }
    EXPECT_EQ(m.memctrl().accessObservers().size(), 0u);
}

} // namespace
} // namespace mintcb::verify
