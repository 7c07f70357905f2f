/**
 * @file
 * The one file layer: every byte mintcb reads from or puts on disk
 * goes through here (the key cache's per-process tmp write aside).
 * Every system call is checked; a failure is Errc::unavailable naming
 * the call, the path and the errno text ("append <path>: ...").
 */

#ifndef MINTCB_COMMON_FILE_HH
#define MINTCB_COMMON_FILE_HH

#include <string>
#include <utility>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb
{

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

} // namespace mintcb

#endif // MINTCB_COMMON_FILE_HH
