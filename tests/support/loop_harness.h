// Test harness for the production TCP transport: an EventLoopServer on an
// ephemeral loopback port with run() on a background thread, plus the
// raw-socket client calls the serve and fault tests share.
//
// The client side deliberately avoids write_all_fd and FdLineReader: those
// fire the tcp.write/tcp.read fault sites, which belong to the server under
// test — a client call through them would consume an armed fault.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "serve/event_loop.h"
#include "serve/server.h"

namespace sasynth {

/// Connects to 127.0.0.1:`port`; -1 on failure.
inline int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends all of `data` with send(MSG_NOSIGNAL): a server that closes the
/// socket mid-script surfaces as a false return (EPIPE), not as SIGPIPE.
inline bool client_send_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until EOF (or a reset); returns everything received.
inline std::string read_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return out;
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One full client session: connect, send the script, half-close, and read
/// everything until the server closes.
inline std::string run_client(int port, const std::string& script) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "<connect failed>";
  client_send_all(fd, script);
  ::shutdown(fd, SHUT_WR);
  std::string transcript = read_to_eof(fd);
  ::close(fd);
  return transcript;
}

/// An EventLoopServer over `server`, started on construction with run() on
/// a background thread. The destructor stops and joins it.
class LoopRunner {
 public:
  explicit LoopRunner(SynthServer& server, EventLoopOptions options = {})
      : loop_(server, options) {
    std::string error;
    const bool started = loop_.start(&error);
    EXPECT_TRUE(started) << error;
    if (started) thread_ = std::thread([this] { status_ = loop_.run(); });
  }

  ~LoopRunner() { stop(); }

  LoopRunner(const LoopRunner&) = delete;
  LoopRunner& operator=(const LoopRunner&) = delete;

  /// Requests the graceful drain (the SIGTERM path) and joins; returns
  /// run()'s status.
  int stop() {
    if (thread_.joinable()) loop_.request_stop();
    return join();
  }

  /// Joins without requesting a stop: for sessions whose own `shutdown`
  /// command ends run(). Returns run()'s status.
  int join() {
    if (thread_.joinable()) thread_.join();
    return status_;
  }

  int port() const { return loop_.port(); }
  std::string peer() const { return "127.0.0.1:" + std::to_string(port()); }
  EventLoopServer& loop() { return loop_; }

 private:
  EventLoopServer loop_;
  int status_ = -1;  ///< run()'s return, written by the loop thread
  std::thread thread_;
};

/// One whole session against `server` on a fresh loop; returns the
/// transcript. Stopping the loop begins the server's drain, so this serves
/// one session per server: keep one LoopRunner to serve more.
inline std::string run_session(SynthServer& server, const std::string& script) {
  LoopRunner runner(server);
  return run_client(runner.port(), script);
}

/// One whole in-process daemon: a SynthServer behind a LoopRunner, running
/// until stop() or destruction. `port` 0 = ephemeral; a fixed port lets a
/// test restart a killed worker on the same address.
class WorkerDaemon {
 public:
  explicit WorkerDaemon(ServeOptions options = {}, int port = 0)
      : server_(std::move(options)),
        runner_(server_, EventLoopOptions{.port = port}) {}

  void stop() { runner_.stop(); }
  int port() const { return runner_.port(); }
  std::string peer() const { return runner_.peer(); }

 private:
  SynthServer server_;
  LoopRunner runner_;
};

}  // namespace sasynth
