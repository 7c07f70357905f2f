/**
 * @file
 * Minimal RAII wrappers over POSIX TCP sockets.
 *
 * The gateway binds loopback only: mintcb models a platform's *trust*
 * story, not a hardened network stack, and every test/bench runs
 * client and server in one process. The wrappers keep errno handling
 * and partial-read/-write loops in one place; everything above them
 * speaks frames (net/wire.hh).
 */

#ifndef MINTCB_NET_SOCKET_HH
#define MINTCB_NET_SOCKET_HH

#include <cstdint>

#include "common/file.hh"
#include "common/result.hh"
#include "common/types.hh"
#include "net/wire.hh"

struct iovec; // <sys/uio.h>; only the implementation needs the layout

namespace mintcb::net
{

/** A connected TCP stream (blocking unless setNonBlocking). */
class TcpStream
{
  public:
    TcpStream() = default;
    explicit TcpStream(OwnedFd fd) : fd_(std::move(fd)) {}

    /** Connect to 127.0.0.1:@p port; @p timeout_ms bounds both the
     *  connect and subsequent blocking reads. */
    static Result<TcpStream> connectLoopback(std::uint16_t port,
                                             int timeout_ms);

    bool valid() const { return fd_.valid(); }
    int fd() const { return fd_.get(); }

    /** O_NONBLOCK on/off (gateway reactor connections). */
    Status setNonBlocking(bool on);

    /** SO_RCVTIMEO: bound for blocking reads; 0 disables. */
    Status setRecvTimeout(int timeout_ms);

    /** Write all of @p data (loops over partial writes; SIGPIPE is
     *  suppressed, a closed peer surfaces as an Error). */
    Status sendAll(const Bytes &data);

    /** Scatter-gather sibling of sendAll: write every byte of @p count
     *  buffers in as few syscalls as the kernel allows (sendmsg, so
     *  SIGPIPE stays suppressed). The iovec array is consumed (entries
     *  are adjusted across partial writes). */
    Status sendAllVec(iovec *iov, std::size_t count);

    /** One non-blocking write attempt of @p len bytes from @p data.
     *  Returns the byte count (0 when the socket buffer is full); a
     *  closed peer surfaces as an Error. Reactor-side sibling of
     *  recvSome. */
    Result<std::size_t> sendSome(const std::uint8_t *data,
                                 std::size_t len);

    /** One read of up to @p max bytes appended to @p out. Returns the
     *  byte count; 0 = orderly EOF. A timeout or EAGAIN surfaces as
     *  Errc::resourceExhausted (distinguishable from real transport
     *  failures, which are Errc::unavailable). */
    Result<std::size_t> recvSome(Bytes &out, std::size_t max = 64 * 1024);

    void close() { fd_.reset(); }

  private:
    OwnedFd fd_;
};

/** A listening loopback socket. */
class TcpListener
{
  public:
    /** Bind and listen on 127.0.0.1:@p port (0 = ephemeral; read the
     *  chosen port back with port()). */
    static Result<TcpListener> bindLoopback(std::uint16_t port);

    std::uint16_t port() const { return port_; }
    int fd() const { return fd_.get(); }
    bool valid() const { return fd_.valid(); }

    /** Accept one pending connection (the caller polled for
     *  readability). */
    Result<TcpStream> accept();

    void close() { fd_.reset(); }

  private:
    OwnedFd fd_;
    std::uint16_t port_ = 0;
};

/**
 * Blocking framed channel for client-side use: buffers the byte
 * stream and hands out whole frames. The gateway side does its own
 * buffering inside the reactor (it multiplexes many sockets).
 */
class FrameChannel
{
  public:
    explicit FrameChannel(TcpStream stream) : stream_(std::move(stream)) {}

    Status send(const Frame &frame)
    {
        return send(frame.type, frame.payload);
    }

    /** Scatter-gather send: a stack-allocated header and the payload
     *  go out in one writev -- the payload is never copied into a
     *  frame buffer. */
    Status send(FrameType type, const Bytes &payload);

    /** Send pre-framed bytes (e.g. a batch of frames built in place
     *  with beginFrame/endFrame) in one sendAll. */
    Status sendRaw(const Bytes &wire) { return stream_.sendAll(wire); }

    /** Block until one complete frame arrives (bounded by the stream's
     *  receive timeout). EOF and malformed framing are Errors. */
    Result<Frame> recv();

    TcpStream &stream() { return stream_; }
    void close() { stream_.close(); }

  private:
    TcpStream stream_;
    Bytes rx_;
};

} // namespace mintcb::net

#endif // MINTCB_NET_SOCKET_HH
