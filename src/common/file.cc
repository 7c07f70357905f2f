/**
 * @file
 * File layer implementation.
 */

#include "common/file.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mintcb
{

namespace
{

Error
ioError(const std::string &what)
{
    return Error(Errc::unavailable, what + ": " + std::strerror(errno));
}

/** @name The counted system calls (threadFileOps). @{ */
int
openFile(const char *path, int flags, mode_t mode = 0)
{
    ++threadFileOps.opens;
    return ::open(path, flags, mode);
}

int
syncFile(int fd)
{
    ++threadFileOps.fsyncs;
    return ::fsync(fd);
}

int
renameFile(const std::string &from, const std::string &to)
{
    ++threadFileOps.renames;
    return std::rename(from.c_str(), to.c_str());
}
/** @} */

/** The one write-all loop: the bytes written, short only when a write
 *  failed (errno says why). */
std::size_t
writeAll(int fd, const Bytes &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ++threadFileOps.writes;
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    return off;
}

/** Read @p fd from its offset to end-of-file. */
Result<Bytes>
readAll(int fd, const std::string &path)
{
    Bytes out;
    std::uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0)
            return ioError("read " + path);
        if (n == 0)
            return out;
        out.insert(out.end(), buf, buf + n);
    }
}

} // namespace

void
OwnedFd::reset()
{
    if (fd_ >= 0)
        ::close(release());
}

Result<Bytes>
readFile(const std::string &path)
{
    OwnedFd fd(openFile(path.c_str(), O_RDONLY));
    if (!fd.valid()) {
        if (errno == ENOENT)
            return Error(Errc::notFound, "no such file: " + path);
        return ioError("open " + path);
    }
    return readAll(fd.get(), path);
}

Status
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
        return Error(Errc::unavailable,
                     "mkdir " + path + ": " + ec.message());
    }
    return okStatus();
}

Status
writeFileDurable(const std::string &path, const Bytes &data)
{
    const std::string tmp = path + ".tmp";
    OwnedFd fd(openFile(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    Status s = okStatus();
    if (!fd.valid())
        s = ioError("create " + tmp);
    else if (writeAll(fd.get(), data) != data.size())
        s = ioError("write " + tmp);
    else if (syncFile(fd.get()) != 0)
        s = ioError("fsync " + tmp);
    else if (::close(fd.release()) != 0)
        s = ioError("close " + tmp);
    else if (renameFile(tmp, path) != 0)
        s = ioError("rename to " + path);
    if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
    }
    // fsync the directory so the rename itself is durable.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? std::string(".")
            : path.substr(0, std::max<std::size_t>(slash, 1));
    fd = OwnedFd(openFile(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (!fd.valid())
        return ioError("open " + dir);
    if (syncFile(fd.get()) != 0)
        return ioError("fsync " + dir);
    return okStatus();
}

Status
AppendFile::open(const std::string &path, std::size_t size)
{
    fd_.reset(); // before the open, so its errno survives to ioError
    fd_ = OwnedFd(openFile(path.c_str(), O_WRONLY | O_APPEND));
    if (!fd_.valid())
        return ioError("open " + path);
    path_ = path;
    size_ = size;
    synced_ = size;
    return okStatus();
}

Status
AppendFile::append(const Bytes &data)
{
    const std::size_t written = writeAll(fd_.get(), data);
    size_ += written;
    if (written != data.size())
        return ioError("append " + path_);
    return okStatus();
}

Status
AppendFile::sync()
{
    if (syncFile(fd_.get()) != 0)
        return ioError("fsync " + path_);
    synced_ = size_;
    return okStatus();
}

Status
AppendFile::truncate(std::size_t len)
{
    if (::ftruncate(fd_.get(), static_cast<off_t>(len)) != 0)
        return ioError("truncate " + path_);
    size_ = len;
    synced_ = std::min(synced_, len);
    return okStatus();
}

Result<Bytes>
SlotFile::open(const std::string &path, std::size_t slot_bytes)
{
    fd_.reset(); // before the open, so its errno survives to ioError
    fd_ = OwnedFd(openFile(path.c_str(), O_RDWR));
    if (!fd_.valid()) {
        if (errno == ENOENT)
            return Error(Errc::notFound, "no such file: " + path);
        return ioError("open " + path);
    }
    auto contents = readAll(fd_.get(), path);
    if (!contents) {
        fd_.reset();
        return contents;
    }
    path_ = path;
    slotBytes_ = slot_bytes;
    size_ = contents->size();
    return contents;
}

Status
SlotFile::write(std::size_t slot, const Bytes &data)
{
    if (data.size() > slotBytes_ || (slot + 1) * slotBytes_ > size_) {
        return Error(Errc::invalidArgument,
                     "slot " + std::to_string(slot) + " of " + path_ +
                         " cannot hold " + std::to_string(data.size()) +
                         " bytes");
    }
    struct stat st{};
    if (::fstat(fd_.get(), &st) != 0)
        return ioError("stat " + path_);
    if (st.st_nlink == 0) {
        return Error(Errc::unavailable,
                     "write " + path_ + ": the file was removed");
    }
    Bytes padded = data;
    padded.resize(slotBytes_, 0);
    std::size_t off = 0;
    while (off < padded.size()) {
        ++threadFileOps.pwrites;
        const ssize_t n =
            ::pwrite(fd_.get(), padded.data() + off, padded.size() - off,
                     static_cast<off_t>(slot * slotBytes_ + off));
        if (n <= 0)
            return ioError("write " + path_);
        off += static_cast<std::size_t>(n);
    }
    ++threadFileOps.fdatasyncs;
    if (::fdatasync(fd_.get()) != 0)
        return ioError("fdatasync " + path_);
    return okStatus();
}

} // namespace mintcb
