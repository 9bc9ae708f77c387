#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/logging.h"

namespace sasynth {

namespace {

/// Transport-level timeout counter (docs/OBSERVABILITY.md): reads and
/// writes that gave up after --io-timeout.
obs::Counter& io_timeouts_counter() {
  static obs::Counter* c =
      &obs::MetricsRegistry::global().counter("io_timeouts_total");
  return *c;
}

/// Parks in poll() until `fd` is ready for `events` (true) or `deadline`
/// passes (false). poll() errors other than EINTR report ready and let the
/// actual read/send surface the errno.
bool wait_fd(int fd, short events, const Deadline& deadline) {
  for (;;) {
    if (deadline.expired()) return false;
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1,
                         static_cast<int>(std::min<std::int64_t>(
                             deadline.remaining_ms(), INT_MAX)));
    if (r > 0) return true;  // ready, or POLLHUP/POLLERR
    if (r < 0 && errno != EINTR) return true;
  }
}

}  // namespace

TcpListener::~TcpListener() { close_listener(); }

bool TcpListener::listen_on(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno) + " (errno " +
             std::to_string(errno) + ")";
    return false;
  }
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    // Not fatal — the bind may still succeed — but never silent: without
    // REUSEADDR a quick daemon restart can spuriously fail with EADDRINUSE.
    SA_LOG_WARN << "setsockopt(SO_REUSEADDR): " << std::strerror(errno);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    // EADDRINUSE is the classic operator mistake (port already taken) — the
    // errno number rides along so the one-line fatal is grep-able.
    *error = std::string("bind 127.0.0.1:") + std::to_string(port) + ": " +
             std::strerror(errno) + " (errno " + std::to_string(errno) + ")";
    ::close(fd);
    return false;
  }
  // Full SOMAXCONN backlog: the event-loop daemon absorbs connection storms
  // (hundreds of simultaneous connects), and a short backlog turns the
  // overflow into kernel-level handshake resets that no server-side
  // backpressure policy ever sees. Admission control belongs to
  // --max-connections and the request queue, not the SYN queue.
  if (::listen(fd, SOMAXCONN) < 0) {
    *error = std::string("listen: ") + std::strerror(errno) + " (errno " +
             std::to_string(errno) + ")";
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  // Publish only a fully set-up listener; error paths never expose the fd.
  fd_ = fd;
  return true;
}

void TcpListener::close_listener() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool FdLineReader::read_line(std::string* out) {
  static fault::Site& read_site = fault::site(fault::kSiteTcpRead);
  // A read error or timeout ends the stream with failed() true; the caller
  // has already logged and dropped the buffered prefix.
  auto end_failed = [&] {
    fault::note_degraded();
    failed_ = true;
    eof_ = true;
    return false;
  };
  // A timeout is a read error plus its counter.
  auto fail_timeout = [&] {
    SA_LOG_WARN << "session read timed out after " << timeout_ms_
                << " ms, dropping " << lines_.drop_partial()
                << " buffered bytes";
    io_timeouts_counter().add(1);
    return end_failed();
  };
  for (;;) {
    if (lines_.next_line(out)) return true;
    if (eof_) return lines_.take_trailing(out);
    char chunk[4096];
    std::size_t want = sizeof(chunk);
    ssize_t n;
    const fault::ErrorKind injected = read_site.fire();
    if (injected == fault::ErrorKind::kStall) {
      // A peer that went quiet mid-request. With a timeout configured this
      // is exactly the case the timer exists for — model it as the timer
      // having elapsed. Without one, stall for real (briefly) and proceed.
      if (timeout_ms_ > 0) return fail_timeout();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    switch (injected) {
      case fault::ErrorKind::kNone:
      case fault::ErrorKind::kStall:
        if (timeout_ms_ > 0 &&
            !wait_fd(fd_, POLLIN, Deadline::after_ms(timeout_ms_))) {
          return fail_timeout();
        }
        n = ::read(fd_, chunk, want);
        break;
      case fault::ErrorKind::kEintr:
        n = -1;
        errno = EINTR;
        break;
      case fault::ErrorKind::kShortRead:
        want = 1;  // the kernel is allowed to return any prefix
        n = ::read(fd_, chunk, want);
        break;
      default:  // epipe/corrupt/enospc/error: a fatal transport error
        n = -1;
        errno = EIO;
        break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // Nonblocking fd raced poll() (or spurious wakeup): wait again.
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      // A read error is not EOF: whatever sits in the buffer is the prefix
      // of a request we never fully received. Delivering it as a complete
      // line would hand the parser a truncated request, so drop it and
      // report failure through failed().
      SA_LOG_WARN << "session read error: " << std::strerror(errno)
                  << ", dropping " << lines_.drop_partial()
                  << " buffered bytes";
      return end_failed();
    }
    if (n == 0) {
      eof_ = true;
    } else {
      lines_.append(chunk, static_cast<std::size_t>(n));
    }
  }
}

bool write_all_fd(int fd, const std::string& data, std::int64_t timeout_ms) {
  static fault::Site& write_site = fault::site(fault::kSiteTcpWrite);
  std::size_t written = 0;
  while (written < data.size()) {
    std::size_t want = data.size() - written;
    const fault::ErrorKind injected = write_site.fire();
    if (injected == fault::ErrorKind::kEintr) continue;  // retryable, like EINTR
    if (injected == fault::ErrorKind::kShortRead) {
      want = 1;  // short write: the kernel took one byte
    } else if (injected == fault::ErrorKind::kStall) {
      // Peer stopped draining its receive buffer. Same modeling as the read
      // side: with a timeout it *is* the timeout; without one, a brief real
      // stall.
      if (timeout_ms > 0) {
        io_timeouts_counter().add(1);
        fault::note_degraded();
        errno = ETIMEDOUT;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } else if (injected != fault::ErrorKind::kNone) {
      errno = EPIPE;  // epipe/error/...: the peer is gone
      return false;
    }
    if (timeout_ms > 0 &&
        !wait_fd(fd, POLLOUT, Deadline::after_ms(timeout_ms))) {
      io_timeouts_counter().add(1);
      fault::note_degraded();
      errno = ETIMEDOUT;
      return false;
    }
    // send(MSG_NOSIGNAL) so a vanished peer surfaces as EPIPE on this call
    // instead of SIGPIPE killing the whole daemon; pipes and regular fds
    // (tests, stdio plumbing) are not sockets, so fall back to write(2)
    // for them — writes to broken pipes are covered by the SIG_IGN the
    // daemon installs at startup.
    ssize_t n = ::send(fd, data.data() + written, want, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data.data() + written, want);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // poll again
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace sasynth
