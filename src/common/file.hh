/**
 * @file
 * The one file layer: every byte mintcb reads from or puts on disk
 * goes through here (the key cache's per-process tmp write aside).
 * Every system call is checked; a failure is Errc::unavailable naming
 * the call, the path and the errno text ("append <path>: ...").
 * fileOpCounts() counts the calls by kind, per thread.
 */

#ifndef MINTCB_COMMON_FILE_HH
#define MINTCB_COMMON_FILE_HH

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb
{

/** File system calls made on this thread through this layer, by kind.
 *  They are exact and host-independent, so a test gates the calls one
 *  store operation makes with EXPECT_EQ; thread-local, like
 *  crypto::hashBlockCounts(). */
struct FileOpCounts
{
    std::uint64_t opens = 0;      //!< open(2), files and directories
    std::uint64_t writes = 0;     //!< write(2)
    std::uint64_t pwrites = 0;    //!< pwrite(2)
    std::uint64_t fsyncs = 0;     //!< fsync(2)
    std::uint64_t fdatasyncs = 0; //!< fdatasync(2)
    std::uint64_t renames = 0;    //!< rename(2)
};

inline thread_local FileOpCounts threadFileOps;

/** This thread's counts so far. */
inline FileOpCounts fileOpCounts() { return threadFileOps; }

/** Owns one file descriptor; closes on destruction. Movable. */
class OwnedFd
{
  public:
    OwnedFd() = default;
    explicit OwnedFd(int fd) : fd_(fd) {}
    ~OwnedFd() { reset(); }

    OwnedFd(OwnedFd &&other) noexcept : fd_(other.release()) {}
    /** Move-assign by swap: the old descriptor closes with @p other. */
    OwnedFd &
    operator=(OwnedFd other) noexcept
    {
        std::swap(fd_, other.fd_);
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Release ownership (caller closes). */
    int release() { return std::exchange(fd_, -1); }
    void reset();

  private:
    int fd_ = -1;
};

/** Read a whole file: notFound when it does not exist, unavailable on
 *  any other failure. An empty file reads as empty bytes. */
Result<Bytes> readFile(const std::string &path);

/** mkdir -p. */
Status makeDirs(const std::string &path);

/** Durable whole-file replace: write "<path>.tmp", fsync, rename over
 *  @p path, fsync the directory. The tmp name is fixed, so repeated
 *  crashes reuse one file; it is unlinked on every failure. */
Status writeFileDurable(const std::string &path, const Bytes &data);

/** An append-only file (the store WAL) that counts the bytes written
 *  (size) and the bytes made durable by sync (syncedBytes). */
class AppendFile
{
  public:
    /** Close any open file, then open the existing @p path, whose
     *  @p size bytes are all durable, for appends. */
    Status open(const std::string &path, std::size_t size);
    void close() { fd_.reset(); }

    /** Write all of @p data; a failure can leave (and count) a prefix. */
    Status append(const Bytes &data);
    Status sync();
    Status truncate(std::size_t len);

    std::size_t size() const { return size_; }
    std::size_t syncedBytes() const { return synced_; }

  private:
    std::string path_;
    OwnedFd fd_;
    std::size_t size_ = 0;
    std::size_t synced_ = 0;
};

/** A file of equal fixed-size slots, each rewritten in place (the
 *  store's chip-NV A/B pair). writeFileDurable creates the file whole;
 *  a slot write never changes its size, so one pwrite and one
 *  fdatasync make the slot durable: fdatasync skips only metadata
 *  (times) that reading the slot back does not need. */
class SlotFile
{
  public:
    /** Close any open file, then open the existing @p path for slot
     *  writes of @p slot_bytes each and return its whole contents
     *  (notFound when it does not exist). The caller checks the
     *  layout; write() refuses any slot past the end of the file. */
    Result<Bytes> open(const std::string &path, std::size_t slot_bytes);
    void close() { fd_.reset(); }
    bool isOpen() const { return fd_.valid(); }

    /** Overwrite slot @p slot with @p data, zero-padded to the slot
     *  size: one pwrite (more only after a short one) and one
     *  fdatasync. A file whose last link is gone is refused: the bytes
     *  would reach an inode no later open can find. */
    Status write(std::size_t slot, const Bytes &data);

  private:
    std::string path_;
    OwnedFd fd_;
    std::size_t slotBytes_ = 0;
    std::size_t size_ = 0;
};

} // namespace mintcb

#endif // MINTCB_COMMON_FILE_HH
