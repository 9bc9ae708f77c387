// Single-threaded event-loop transport for the synthesis service: the one
// session engine `sasynthd` serves on, for TCP clients and (through a
// socketpair bridge, see start_on) for stdio.
//
// One loop thread owns every connection: non-blocking accept, per-connection
// read/write state machines (session framing from serve/framing.h; ordered
// per-session responses), with request execution dispatched through the
// SynthServer's scheduler/ThreadPool.
// Completed responses are handed back to the loop over a mutex-guarded
// completion queue plus an eventfd wakeup, so pool workers never touch
// connection state — connections are loop-thread-only and need no locks.
//
// The poller is epoll (Linux only). The loop honors the server's
// --io-timeout on each direction of every connection, fires the
// tcp.read/tcp.write fault sites with the same kind semantics as
// FdLineReader/write_all_fd, and adds two loop-specific sites: `loop.poll`
// (transient poller failure, absorbed and retried) and `loop.wakeup` (a lost
// cross-thread wakeup, recovered by the loop's bounded <=250 ms wait tick —
// a completion may be delayed, never dropped).
//
// Determinism invariant (docs/ARCHITECTURE.md): the transport orders bytes,
// it never computes. Every response byte comes from SynthServer::handle /
// handle_deploy / handle_shard / handle_command, so responses are
// byte-identical to a direct handle() call at any connection count,
// interleaving, or cache state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/server.h"
#include "serve/tcp.h"

namespace sasynth {

struct EventLoopOptions {
  /// Listen port on 127.0.0.1 (0 = ephemeral, reported by port()).
  int port = 0;
  /// Open-connection bound; 0 = unlimited. A client beyond the bound gets a
  /// one-line retry response and an immediate close — connection-level
  /// backpressure in front of the request-level admission queue.
  std::int64_t max_connections = 0;
  /// Bound on the graceful drain (request_stop() or the `shutdown` command):
  /// in-flight requests finish and responses flush within this budget, or
  /// run() force-closes what remains and returns 1.
  std::int64_t drain_timeout_ms = 5000;
};

class EventLoopServer {
 public:
  EventLoopServer(SynthServer& server, EventLoopOptions options);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds the listener and builds the poller + wakeup eventfd. On failure
  /// returns false with a message in `error`; run() must not be called.
  bool start(std::string* error);

  /// Like start(), but with no listener: `fd` (a connected socket, which the
  /// loop owns and closes when its session ends) is the one session. The
  /// stdio transport passes one end of a socketpair here.
  bool start_on(int fd, std::string* error);

  /// The bound port (valid after start()).
  int port() const;

  /// Runs the loop until a graceful stop completes: request_stop() from
  /// another thread, a session's `shutdown` command, or the loop left with
  /// neither a listener nor a session. Returns 0 when every in-flight
  /// request finished and every response flushed inside drain_timeout_ms, 1
  /// when the bound expired with work or bytes still outstanding (remaining
  /// connections are force-closed either way).
  int run();

  /// Begins the graceful drain from any thread (the SIGTERM path): the loop
  /// stops accepting, stops reading, finishes in-flight work, flushes, and
  /// run() returns. Idempotent; safe to call before run() starts.
  void request_stop();

  /// Open connections right now (loop-thread maintained; other threads see
  /// a recent value). Diagnostics and tests only.
  std::int64_t open_connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sasynth
