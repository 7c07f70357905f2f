/**
 * @file
 * File layer tests: readFile's missing/empty distinction, the durable
 * replace, AppendFile's byte accounting, SlotFile's in-place writes and
 * the per-thread call counts.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/file.hh"

#include "../store/storetest.hh"

namespace mintcb
{
namespace
{

using storetest::FileSizeCap;

/** A scratch directory with a path helper. */
class ScratchDir : public storetest::TempDir
{
  public:
    std::string path(const std::string &name) const
    {
        return root() + "/" + name;
    }
};

TEST(File, MissingFileIsNotFoundAndEmptyFileIsEmpty)
{
    ScratchDir dir;
    auto missing = readFile(dir.path("absent"));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::notFound);

    ASSERT_TRUE(writeFileDurable(dir.path("empty"), {}).ok());
    auto empty = readFile(dir.path("empty"));
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());
}

TEST(File, UnreadablePathIsUnavailable)
{
    ScratchDir dir;
    ASSERT_TRUE(makeDirs(dir.path("sub")).ok());
    // A directory opens but cannot be read.
    auto read = readFile(dir.path("sub"));
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, Errc::unavailable);
}

TEST(File, DurableWriteReplacesAndLeavesNoTmp)
{
    ScratchDir dir;
    ASSERT_TRUE(makeDirs(dir.path("a/b/c")).ok());
    const std::string path = dir.path("a/b/c/file");
    const Bytes big(200 * 1024, 0x5a);
    ASSERT_TRUE(writeFileDurable(path, big).ok());
    ASSERT_TRUE(writeFileDurable(path, {1, 2, 3}).ok());
    auto read = readFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, (Bytes{1, 2, 3}));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(File, FailedDurableWriteRemovesTmpAndKeepsTheOldFile)
{
    ScratchDir dir;
    const std::string path = dir.path("file");
    ASSERT_TRUE(writeFileDurable(path, {7}).ok());

    Status s = okStatus();
    {
        FileSizeCap cap(16);
        ASSERT_TRUE(cap.active());
        s = writeFileDurable(path, Bytes(64, 0x11));
        cap.restore();
    }

    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::unavailable);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    auto read = readFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, Bytes{7});
}

TEST(File, AppendFileCountsWrittenAndSyncedBytes)
{
    ScratchDir dir;
    const std::string path = dir.path("log");
    ASSERT_TRUE(writeFileDurable(path, {1, 2}).ok());
    AppendFile file;
    ASSERT_TRUE(file.open(path, 2).ok());
    ASSERT_TRUE(file.append({3, 4, 5}).ok());
    EXPECT_EQ(file.size(), 5u);
    EXPECT_EQ(file.syncedBytes(), 2u);
    ASSERT_TRUE(file.sync().ok());
    EXPECT_EQ(file.syncedBytes(), 5u);

    ASSERT_TRUE(file.truncate(3).ok());
    EXPECT_EQ(file.size(), 3u);
    EXPECT_EQ(file.syncedBytes(), 3u);
    ASSERT_TRUE(file.append({9}).ok());
    auto read = readFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, (Bytes{1, 2, 3, 9}));

    file.close();
    EXPECT_FALSE(file.append({1}).ok());
    EXPECT_EQ(file.size(), 4u);
}

TEST(File, FailedReopenLeavesTheAppendFileClosed)
{
    ScratchDir dir;
    const std::string path = dir.path("log");
    ASSERT_TRUE(writeFileDurable(path, {1}).ok());
    AppendFile file;
    ASSERT_TRUE(file.open(path, 1).ok());
    const Status reopened = file.open(dir.path("absent"), 0);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, Errc::unavailable);
    // Nothing may still reach the file the instance had open.
    EXPECT_FALSE(file.append({2}).ok());
    EXPECT_EQ(*readFile(path), Bytes{1});
}

TEST(File, SlotFileWritesOneSlotInPlaceAndNeverGrows)
{
    ScratchDir dir;
    const std::string path = dir.path("slots");
    SlotFile file;
    auto missing = file.open(path, 4);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::notFound);
    EXPECT_FALSE(file.isOpen());

    ASSERT_TRUE(writeFileDurable(path, Bytes(8, 0)).ok());
    auto contents = file.open(path, 4);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents, Bytes(8, 0));

    const FileOpCounts before = fileOpCounts();
    ASSERT_TRUE(file.write(1, {7, 8}).ok());
    const FileOpCounts after = fileOpCounts();
    EXPECT_EQ(after.pwrites - before.pwrites, 1u);
    EXPECT_EQ(after.fdatasyncs - before.fdatasyncs, 1u);
    EXPECT_EQ(after.opens - before.opens, 0u);
    EXPECT_EQ(after.fsyncs - before.fsyncs, 0u);
    EXPECT_EQ(*readFile(path), (Bytes{0, 0, 0, 0, 7, 8, 0, 0}));

    // A shorter write pads the whole slot; the other slot is untouched.
    ASSERT_TRUE(file.write(0, {1, 2, 3, 4}).ok());
    ASSERT_TRUE(file.write(1, {9}).ok());
    EXPECT_EQ(*readFile(path), (Bytes{1, 2, 3, 4, 9, 0, 0, 0}));

    // Nothing may grow the file: no slot past its end, no oversized
    // slot.
    EXPECT_EQ(file.write(2, {1}).error().code, Errc::invalidArgument);
    EXPECT_EQ(file.write(0, Bytes(5, 1)).error().code,
              Errc::invalidArgument);
    EXPECT_EQ(std::filesystem::file_size(path), 8u);
}

TEST(File, SlotFileRefusesAWriteAfterItsFileWasRemoved)
{
    ScratchDir dir;
    const std::string path = dir.path("slots");
    ASSERT_TRUE(writeFileDurable(path, Bytes(8, 0)).ok());
    SlotFile file;
    ASSERT_TRUE(file.open(path, 4).ok());
    std::filesystem::remove(path);
    const Status s = file.write(0, {1});
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::unavailable);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(File, ShortSlotWriteIsAnError)
{
    ScratchDir dir;
    const std::string path = dir.path("slots");
    ASSERT_TRUE(writeFileDurable(path, Bytes(8, 0)).ok());
    SlotFile file;
    ASSERT_TRUE(file.open(path, 4).ok());
    Status s = okStatus();
    {
        FileSizeCap cap(6);
        ASSERT_TRUE(cap.active());
        s = file.write(1, {1, 2, 3, 4});
        cap.restore();
    }
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::unavailable);
    // The cap cut the slot after its first two bytes: a torn slot.
    EXPECT_EQ(*readFile(path), (Bytes{0, 0, 0, 0, 1, 2, 0, 0}));
}

TEST(File, DurableReplaceCountsItsCalls)
{
    ScratchDir dir;
    const FileOpCounts before = fileOpCounts();
    ASSERT_TRUE(writeFileDurable(dir.path("f"), {1, 2, 3}).ok());
    const FileOpCounts after = fileOpCounts();
    // Create the tmp, write it, fsync it, rename it over the path,
    // open the directory and fsync it.
    EXPECT_EQ(after.opens - before.opens, 2u);
    EXPECT_EQ(after.writes - before.writes, 1u);
    EXPECT_EQ(after.fsyncs - before.fsyncs, 2u);
    EXPECT_EQ(after.renames - before.renames, 1u);
    EXPECT_EQ(after.pwrites - before.pwrites, 0u);
    EXPECT_EQ(after.fdatasyncs - before.fdatasyncs, 0u);
}

} // namespace
} // namespace mintcb
