// POSIX socket I/O for the synthesis service: the listener the event loop
// (serve/event_loop.h) accepts from, and the line reader and writer that
// stdio serving, the shard client and the peer prober use.
//
// The daemon binds the loopback interface only: sasynthd speaks an
// unauthenticated text protocol, so exposure beyond the host is a deployment
// decision (front it with a real ingress), not a default. Port 0 binds an
// ephemeral port, reported by port() — which is also how tests run a real
// client/server pair without colliding.
#pragma once

#include <cstdint>
#include <string>

#include "serve/framing.h"

namespace sasynth {

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and listens. On failure returns
  /// false with a message in `error`.
  bool listen_on(int port, std::string* error);

  /// The bound port (valid after listen_on succeeds).
  int port() const { return port_; }

  /// The listening fd (-1 before listen_on / after close_listener). The
  /// event loop registers it with its poller for non-blocking accepts.
  int fd() const { return fd_; }

  /// Closes the listening socket. Idempotent.
  void close_listener();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Buffered line reader over a socket, pipe or regular-file fd, framed by
/// LineFramer: a trailing unterminated line is delivered at clean EOF. A
/// read *error* is different from EOF: any buffered partial line is dropped
/// (a truncated request must never reach the parser as if it were
/// complete), read_line returns false, and failed() reports true.
///
/// With `timeout_ms` > 0 the reader polls before every read and gives up
/// once no byte has arrived for that long (a peer that went silent cannot
/// park its caller forever). A timeout counts in `io_timeouts_total` and
/// ends the stream like a read error.
class FdLineReader {
 public:
  explicit FdLineReader(int fd, std::int64_t timeout_ms = 0)
      : fd_(fd), timeout_ms_(timeout_ms) {}

  /// False at EOF or on a read error; failed() distinguishes the two.
  bool read_line(std::string* out);

  /// True once a non-EINTR read error (or an I/O timeout) ended the stream.
  bool failed() const { return failed_; }

 private:
  int fd_;
  std::int64_t timeout_ms_ = 0;  ///< 0 = wait forever
  LineFramer lines_;
  bool eof_ = false;
  bool failed_ = false;
};

/// Writes all of `data` to `fd`; false on error. Sockets are written with
/// send(MSG_NOSIGNAL) so a disconnected peer yields EPIPE here instead of a
/// process-killing SIGPIPE; non-socket fds fall back to write(2).
/// With `timeout_ms` > 0 each blocked stretch is bounded by poll(POLLOUT):
/// a peer that stops reading (full receive window) fails the write with
/// ETIMEDOUT and a tick in `io_timeouts_total` instead of wedging the
/// writing thread.
bool write_all_fd(int fd, const std::string& data, std::int64_t timeout_ms = 0);

}  // namespace sasynth
