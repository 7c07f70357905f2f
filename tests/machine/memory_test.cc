/**
 * @file
 * Physical memory tests.
 */

#include <gtest/gtest.h>

#include "machine/memory.hh"

namespace mintcb::machine
{
namespace
{

TEST(PhysicalMemory, SizeAndZeroInit)
{
    PhysicalMemory mem(4);
    EXPECT_EQ(mem.pages(), 4u);
    EXPECT_EQ(mem.sizeBytes(), 4u * pageSize);
    auto r = mem.read(0, 16);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, Bytes(16, 0x00));
}

TEST(PhysicalMemory, WriteReadRoundTrip)
{
    PhysicalMemory mem(2);
    const Bytes data = {1, 2, 3, 4, 5};
    ASSERT_TRUE(mem.write(100, data).ok());
    EXPECT_EQ(*mem.read(100, 5), data);
}

TEST(PhysicalMemory, CrossPageWrite)
{
    PhysicalMemory mem(2);
    const Bytes data(100, 0xcd);
    ASSERT_TRUE(mem.write(pageSize - 50, data).ok());
    EXPECT_EQ(*mem.read(pageSize - 50, 100), data);
}

TEST(PhysicalMemory, ReadSpansWrittenAndUntouchedPages)
{
    // Pages get storage on first write; a page never written between
    // two written ones still reads as zeros.
    PhysicalMemory mem(3);
    ASSERT_TRUE(mem.write(pageSize - 2, {1, 2}).ok());
    ASSERT_TRUE(mem.write(2 * pageSize, {3}).ok());
    auto r = mem.read(pageSize - 2, pageSize + 3);
    ASSERT_TRUE(r.ok());
    Bytes expected(pageSize + 3, 0x00);
    expected[0] = 1;
    expected[1] = 2;
    expected[pageSize + 2] = 3;
    EXPECT_EQ(*r, expected);
}

TEST(PhysicalMemory, OutOfRangeRejected)
{
    PhysicalMemory mem(1);
    EXPECT_FALSE(mem.read(pageSize - 1, 2).ok());
    EXPECT_FALSE(mem.write(pageSize, {1}).ok());
    EXPECT_FALSE(mem.read(1ull << 40, 1).ok());
    // Length overflow must not wrap.
    EXPECT_FALSE(mem.read(10, ~0ull).ok());
}

TEST(PhysicalMemory, BoundaryAccessesSucceed)
{
    PhysicalMemory mem(1);
    EXPECT_TRUE(mem.write(pageSize - 1, {0xff}).ok());
    EXPECT_TRUE(mem.read(0, pageSize).ok());
    EXPECT_TRUE(mem.read(pageSize, 0).ok());
}

TEST(PhysicalMemory, ZeroPageErases)
{
    PhysicalMemory mem(2);
    ASSERT_TRUE(mem.write(pageSize + 7, {9, 9, 9}).ok());
    ASSERT_TRUE(mem.zeroPage(1).ok());
    EXPECT_EQ(*mem.read(pageSize, pageSize), Bytes(pageSize, 0x00));
    EXPECT_FALSE(mem.zeroPage(2).ok());
}

TEST(PhysicalMemory, PageHelpers)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(pageSize - 1), 0u);
    EXPECT_EQ(pageOf(pageSize), 1u);
    EXPECT_EQ(pageBase(3), 3 * pageSize);
    EXPECT_EQ(pagesFor(0), 0u);
    EXPECT_EQ(pagesFor(1), 1u);
    EXPECT_EQ(pagesFor(pageSize), 1u);
    EXPECT_EQ(pagesFor(pageSize + 1), 2u);
}

} // namespace
} // namespace mintcb::machine
