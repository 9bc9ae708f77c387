#include "serve/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sasynth {

namespace {

/// accept(2) failures the listener must ride out rather than die on:
/// resource pressure (fd/buffer exhaustion) or a connection that aborted
/// while parked in the backlog.
bool accept_errno_is_transient(int err) {
  return err == ECONNABORTED || err == EMFILE || err == ENFILE ||
         err == ENOBUFS || err == ENOMEM || err == EPROTO;
}

/// Loop-layer instruments (docs/OBSERVABILITY.md). The gauge is the live
/// open-connection count; the counters are monotonic accept/reject/wakeup
/// totals for rate math.
struct LoopMetrics {
  obs::Gauge& connections;
  obs::Counter& connections_total;
  obs::Counter& connections_rejected;
  obs::Counter& wakeups;
  obs::Counter& io_timeouts;

  static LoopMetrics& get() {
    static LoopMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new LoopMetrics{
          r.gauge("serve_connections"),
          r.counter("serve_connections_total"),
          r.counter("serve_connections_rejected_total"),
          r.counter("loop_wakeups_total"),
          r.counter("io_timeouts_total"),
      };
    }();
    return *m;
  }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One finished response on its way back to the loop thread.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string response;
};

/// The cross-thread handoff: pool workers (and any thread a coalesced
/// completion lands on) push here and poke the wake fd; the loop swaps the
/// queue out under the lock. Held by shared_ptr so a completion that arrives
/// after the loop is gone (forced drain timeout) lands in a detached queue
/// instead of freed memory.
struct Waker {
  std::mutex mutex;
  std::vector<Completion> queue;
  int wake_fd = -1;  ///< the eventfd, shared with the loop's read side

  void post(std::uint64_t conn_id, std::uint64_t seq, std::string response) {
    obs::ScopedSpan span("loop.wakeup", "serve");
    std::lock_guard<std::mutex> lock(mutex);
    queue.push_back(Completion{conn_id, seq, std::move(response)});
    wake_locked();
  }

  void wake() {
    std::lock_guard<std::mutex> lock(mutex);
    wake_locked();
  }

  void wake_locked() {
    static fault::Site& wakeup_site = fault::site(fault::kSiteLoopWakeup);
    LoopMetrics::get().wakeups.add(1);
    if (wakeup_site.fire() != fault::ErrorKind::kNone) {
      // A lost wakeup: the completion sits in the queue until the loop's
      // bounded wait tick (<= 250 ms) next looks — delayed, never dropped.
      fault::note_degraded();
      return;
    }
    if (wake_fd < 0) return;  // loop already torn down; queue is detached
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void detach() {
    std::lock_guard<std::mutex> lock(mutex);
    if (wake_fd >= 0) ::close(wake_fd);
    wake_fd = -1;
  }
};

/// Per-connection state machine, loop-thread-only. The read side frames
/// with the shared session framers (serve/framing.h); the write side emits
/// responses strictly in request order (seq -> ready map) with
/// write_all_fd's partial-write and fault-site semantics.
struct Connection {
  std::uint64_t id = 0;
  int fd = -1;

  // Read side / framing.
  LineFramer lines;          ///< raw bytes, not yet framed into lines
  FrameAssembler frames;     ///< lines, not yet framed into a block
  bool read_closed = false;  ///< EOF/error/timeout/drain: input is over

  // Ordered responses.
  std::uint64_t next_seq = 0;   ///< seqs handed out to submissions/commands
  std::uint64_t next_emit = 0;  ///< next seq to append to outbuf
  std::uint64_t posted = 0;     ///< responses received (ready or emitted)
  std::map<std::uint64_t, std::string> ready;

  // Write side.
  std::string outbuf;

  // --io-timeout per direction, reset on progress (Deadline() = disarmed).
  Deadline read_deadline;
  Deadline write_deadline;

  std::uint32_t registered_events = 0;

  bool flushed() const {
    return posted == next_seq && ready.empty() && outbuf.empty();
  }
};

}  // namespace

struct EventLoopServer::Impl {
  SynthServer& server;
  EventLoopOptions options;
  std::int64_t io_timeout_ms = 0;

  TcpListener listener;
  std::shared_ptr<Waker> waker = std::make_shared<Waker>();
  int wake_read_fd = -1;  ///< the waker's eventfd (closed by its detach())
  int epoll_fd = -1;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::uint64_t next_conn_id = 3;  ///< 1 = listener, 2 = wake fd
  static constexpr std::uint64_t kListenerId = 1;
  static constexpr std::uint64_t kWakeId = 2;

  std::atomic<bool> stop_requested{false};
  std::atomic<std::int64_t> open_count{0};
  bool draining = false;
  Deadline drain_deadline;

  Impl(SynthServer& s, EventLoopOptions o)
      : server(s), options(o), io_timeout_ms(s.options().io_timeout_ms) {}

  ~Impl() {
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns.clear();
    LoopMetrics::get().connections.set(0);
    waker->detach();
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  // --- poller -----------------------------------------------------------

  bool start(std::string* error) {
    if (!listener.listen_on(options.port, error) || !open_poller(error)) {
      return false;
    }
    set_nonblocking(listener.fd());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listener.fd(), &ev) < 0) {
      *error = std::string("epoll_ctl(listener): ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool start_on(int fd, std::string* error) {
    if (!open_poller(error)) return false;
    if (add_connection(fd) == nullptr) {
      *error = std::string("epoll_ctl(session): ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  /// The poller and the waker's eventfd, registered with each other.
  bool open_poller(std::string* error) {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
      return false;
    }
    const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (efd < 0) {
      *error = std::string("eventfd: ") + std::strerror(errno);
      return false;
    }
    // eventfd is one fd for both ends.
    wake_read_fd = efd;
    waker->wake_fd = efd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_read_fd, &ev) < 0) {
      *error = std::string("epoll_ctl(eventfd): ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  std::uint32_t wanted_events(const Connection& c) const {
    std::uint32_t want = 0;
    if (!c.read_closed) want |= EPOLLIN;
    if (!c.outbuf.empty()) want |= EPOLLOUT;
    return want;
  }

  void update_events(Connection& c) {
    const std::uint32_t want = wanted_events(c);
    if (want == c.registered_events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c.id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
      c.registered_events = want;
    }
  }

  /// One (id, revents) pair per ready fd, in poller order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> wait(int timeout_ms) {
    static fault::Site& poll_site = fault::site(fault::kSiteLoopPoll);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    if (poll_site.fire() != fault::ErrorKind::kNone) {
      // Transient poller failure: skip this wait — completions and deadlines
      // are processed every iteration regardless of events, so nothing is
      // lost, and the brief sleep keeps an every-call fault from spinning.
      fault::note_degraded();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return out;
    }
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
    if (n < 0) return out;  // EINTR (or worse): treat as an empty tick
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      const std::uint32_t revents = events[i].events;
      out.emplace_back(id, revents);
    }
    return out;
  }

  void drain_wake_fd() {
    char buf[64];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  /// Next wait bound: 250 ms tick (drain checks, lost-wakeup recovery),
  /// tightened by the nearest io/drain deadline.
  int wait_timeout_ms() const {
    std::int64_t t = 250;
    for (const auto& [id, conn] : conns) {
      if (!conn->read_deadline.unbounded()) {
        t = std::min(t, conn->read_deadline.remaining_ms());
      }
      if (!conn->write_deadline.unbounded()) {
        t = std::min(t, conn->write_deadline.remaining_ms());
      }
    }
    if (draining) t = std::min(t, drain_deadline.remaining_ms());
    return static_cast<int>(std::max<std::int64_t>(0, t));
  }

  // --- connection lifecycle --------------------------------------------

  /// Registers `fd` as a new session; the loop owns it from here on. When
  /// the poller refuses it, closes it and returns nullptr (errno kept).
  Connection* add_connection(int fd) {
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id++;
    conn->fd = fd;
    if (io_timeout_ms > 0) {
      conn->read_deadline = Deadline::after_ms(io_timeout_ms);
    }
    set_nonblocking(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return nullptr;
    }
    conn->registered_events = EPOLLIN;
    Connection& ref = *conn;
    conns.emplace(ref.id, std::move(conn));
    open_count.store(static_cast<std::int64_t>(conns.size()));
    LoopMetrics::get().connections.set(static_cast<std::int64_t>(conns.size()));
    LoopMetrics::get().connections_total.add(1);
    return &ref;
  }

  void close_conn(Connection& c) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    conns.erase(c.id);  // destroys c — no touching it past this line
    open_count.store(static_cast<std::int64_t>(conns.size()));
    LoopMetrics::get().connections.set(static_cast<std::int64_t>(conns.size()));
  }

  /// Close once the session is over and every byte is out.
  void maybe_close(Connection& c) {
    if (c.read_closed && c.flushed()) close_conn(c);
  }

  /// Transport failure (write error/timeout): the peer cannot receive
  /// answers, so pending work is abandoned — completions for this id will be
  /// dropped on arrival. Mirrors "first failed write ends the session".
  void fail_conn(Connection& c, const char* why) {
    SA_LOG_WARN << "event loop: " << why << " (conn " << c.id
                << "), ending session";
    fault::note_degraded();
    ::shutdown(c.fd, SHUT_RDWR);
    close_conn(c);
  }

  // --- accept -----------------------------------------------------------

  void do_accept() {
    static fault::Site& accept_site = fault::site(fault::kSiteTcpAccept);
    for (;;) {
      const int lfd = listener.fd();
      if (lfd < 0) return;
      int err;
      int client = -1;
      if (accept_site.fire() != fault::ErrorKind::kNone) {
        err = ECONNABORTED;  // every injected kind is a transient failure
      } else {
        client = ::accept(lfd, nullptr, nullptr);
        if (client < 0) err = errno;
      }
      if (client >= 0) {
        if (draining || server.stop_requested()) {
          ::close(client);  // no new sessions once the drain began
          continue;
        }
        if (options.max_connections > 0 &&
            static_cast<std::int64_t>(conns.size()) >=
                options.max_connections) {
          // Connection-level backpressure: answer with the retry verdict the
          // protocol already has, then hang up. Cheap, deterministic, and the
          // client's backoff logic is the same one queue-full exercises.
          LoopMetrics::get().connections_rejected.add(1);
          fault::note_degraded();
          Connection* c = add_connection(client);
          if (c == nullptr) continue;
          c->read_closed = true;
          c->outbuf = format_retry_response(
              strformat("connection limit reached (%lld open), retry later",
                        static_cast<long long>(options.max_connections)));
          if (io_timeout_ms > 0) {
            c->write_deadline = Deadline::after_ms(io_timeout_ms);
          }
          try_write(*c);
          continue;
        }
        add_connection(client);
        continue;
      }
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
      if (accept_errno_is_transient(err)) {
        SA_LOG_WARN << "accept: " << std::strerror(err) << ", retrying";
        fault::note_degraded();
        // Brief backoff: under fd exhaustion an instant retry would spin
        // without a session releasing one.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return;
      }
      if (err != EBADF && err != EINVAL) {
        SA_LOG_ERROR << "accept: " << std::strerror(err)
                     << ", stopping the accept loop";
      }
      listener.close_listener();
      return;
    }
  }

  // --- read side --------------------------------------------------------

  /// Ends the read side the way FdLineReader ends on error/timeout: the
  /// buffered partial *line* is dropped (a truncated request must never
  /// reach the parser as if complete), but lines already framed into a
  /// partial block are submitted — the parse error is the answer, as it is
  /// for a block cut off by EOF.
  void end_input(Connection& c) {
    c.lines.drop_partial();
    c.read_closed = true;
    c.read_deadline = Deadline();
    SessionFrame partial;
    if (c.frames.finish(&partial)) dispatch_frame(c, std::move(partial));
    update_events(c);
    maybe_close(c);
  }

  void fail_read_timeout(Connection& c) {
    SA_LOG_WARN << "session read timed out after " << io_timeout_ms
                << " ms, dropping " << c.lines.drop_partial()
                << " buffered bytes";
    LoopMetrics::get().io_timeouts.add(1);
    fault::note_degraded();
    end_input(c);
  }

  void handle_eof(Connection& c) {
    // Clean EOF delivers a trailing unterminated line first, then ends
    // input.
    std::string line;
    if (c.lines.take_trailing(&line)) {
      const std::uint64_t id = c.id;
      dispatch_line(c, line);
      // dispatch_line can reach try_write (bare command) and a failed write
      // destroys the connection — re-resolve before ending input.
      auto it = conns.find(id);
      if (it == conns.end()) return;
      end_input(*it->second);
      return;
    }
    end_input(c);
  }

  void do_read(std::uint64_t id) {
    static fault::Site& read_site = fault::site(fault::kSiteTcpRead);
    // Bounded per event so one flooding client cannot starve the rest; the
    // level-triggered poller re-reports leftover bytes next iteration.
    for (int round = 0; round < 16; ++round) {
      auto it = conns.find(id);
      if (it == conns.end()) return;  // dispatch closed it (shutdown/drain)
      Connection& c = *it->second;
      if (c.read_closed) return;
      char chunk[4096];
      std::size_t want = sizeof(chunk);
      ssize_t n;
      const fault::ErrorKind injected = read_site.fire();
      if (injected == fault::ErrorKind::kStall) {
        // Peer went quiet mid-request. With a timeout configured this is
        // exactly what the timer exists for — model it as elapsed. Without
        // one, stall for real (briefly) and proceed, like FdLineReader.
        if (io_timeout_ms > 0) {
          fail_read_timeout(c);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      switch (injected) {
        case fault::ErrorKind::kNone:
        case fault::ErrorKind::kStall:
          n = ::read(c.fd, chunk, want);
          break;
        case fault::ErrorKind::kEintr:
          continue;  // retry immediately, like a real EINTR
        case fault::ErrorKind::kShortRead:
          want = 1;  // the kernel is allowed to return any prefix
          n = ::read(c.fd, chunk, want);
          break;
        default:  // epipe/corrupt/enospc/error: a fatal transport error
          n = -1;
          errno = EIO;
          break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
        SA_LOG_WARN << "session read error: " << std::strerror(errno)
                    << ", dropping " << c.lines.drop_partial()
                    << " buffered bytes";
        fault::note_degraded();
        end_input(c);
        return;
      }
      if (n == 0) {
        handle_eof(c);
        return;
      }
      c.lines.append(chunk, static_cast<std::size_t>(n));
      if (io_timeout_ms > 0) {
        c.read_deadline = Deadline::after_ms(io_timeout_ms);
      }
      process_lines(id);  // may destroy c; the loop re-resolves by id
    }
  }

  void process_lines(std::uint64_t id) {
    for (;;) {
      // Re-resolved every iteration: dispatch_line can reach try_write (a
      // bare command answers inline) and a failed response write destroys
      // the connection mid-call — the reference must never outlive one
      // dispatch.
      auto it = conns.find(id);
      if (it == conns.end()) return;
      Connection& c = *it->second;
      if (c.read_closed) return;
      std::string line;
      if (!c.lines.next_line(&line)) return;
      dispatch_line(c, line);
      // A `shutdown` command (from any connection) or a concurrent drain
      // stops further dispatch; leftover input is never read.
      if (server.stop_requested() || server.draining()) {
        auto again = conns.find(id);
        if (again != conns.end()) end_input(*again->second);
        return;
      }
    }
  }

  void dispatch_line(Connection& c, const std::string& line) {
    SessionFrame frame;
    if (c.frames.push(line, &frame)) dispatch_frame(c, std::move(frame));
  }

  void dispatch_frame(Connection& c, SessionFrame frame) {
    const std::uint64_t seq = c.next_seq++;
    if (!frame.is_block) {
      // Bare command. `stats`/`shutdown` drain the scheduler *on the loop
      // thread* — every connection pauses until in-flight work settles.
      // That is the documented cost of asking for settled counters;
      // `health` stays instant for exactly this reason.
      post_local(c, seq, server.handle_command(frame.text));
      return;
    }
    // The post closure owns only (waker, id, seq): the connection may be
    // long gone when a slow DSE completes, and a completion for a dead id is
    // dropped at the loop, never dereferenced.
    std::shared_ptr<Waker> w = waker;
    const std::uint64_t id = c.id;
    server.submit_session_block(
        std::move(frame.text), frame.kind, seq,
        [w, id](std::uint64_t s, std::string response) {
          w->post(id, s, std::move(response));
        });
  }

  // --- write side -------------------------------------------------------

  void post_local(Connection& c, std::uint64_t seq, std::string response) {
    c.ready.emplace(seq, std::move(response));
    ++c.posted;
    flush_ready(c);
  }

  void apply_completion(Completion&& done) {
    auto it = conns.find(done.conn_id);
    if (it == conns.end()) return;  // session ended mid-flight; peer is gone
    Connection& c = *it->second;
    c.ready.emplace(done.seq, std::move(done.response));
    ++c.posted;
    flush_ready(c);
  }

  /// Moves consecutively-ready responses into outbuf, strictly in request
  /// order (submit_session_block posts every seq exactly once, so there are
  /// no holes to skip), then pushes bytes.
  void flush_ready(Connection& c) {
    const bool was_empty = c.outbuf.empty();
    while (!c.ready.empty() && c.ready.begin()->first == c.next_emit) {
      c.outbuf += c.ready.begin()->second;
      c.ready.erase(c.ready.begin());
      ++c.next_emit;
    }
    if (!c.outbuf.empty() && was_empty && io_timeout_ms > 0) {
      c.write_deadline = Deadline::after_ms(io_timeout_ms);
    }
    try_write(c);
  }

  void try_write(Connection& c) {
    static fault::Site& write_site = fault::site(fault::kSiteTcpWrite);
    while (!c.outbuf.empty()) {
      std::size_t want = c.outbuf.size();
      const fault::ErrorKind injected = write_site.fire();
      if (injected == fault::ErrorKind::kEintr) continue;  // retryable
      if (injected == fault::ErrorKind::kShortRead) {
        want = 1;  // short write: the kernel took one byte
      } else if (injected == fault::ErrorKind::kStall) {
        // Peer stopped draining its receive buffer: with a timeout it *is*
        // the timeout; without one, a brief real stall (write_all_fd rules).
        if (io_timeout_ms > 0) {
          LoopMetrics::get().io_timeouts.add(1);
          fail_conn(c, "session write timed out");
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } else if (injected != fault::ErrorKind::kNone) {
        fail_conn(c, "session write failed (injected peer loss)");
        return;
      }
      const ssize_t n = ::send(c.fd, c.outbuf.data(), want, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          update_events(c);  // send buffer full: wait for writability
          return;
        }
        fail_conn(c, "session write failed");
        return;
      }
      c.outbuf.erase(0, static_cast<std::size_t>(n));
      if (io_timeout_ms > 0) {
        c.write_deadline = Deadline::after_ms(io_timeout_ms);
      }
    }
    c.write_deadline = Deadline();
    update_events(c);
    maybe_close(c);
  }

  // --- deadlines / drain ------------------------------------------------

  void check_io_deadlines() {
    if (io_timeout_ms <= 0) return;
    std::vector<std::uint64_t> read_expired;
    std::vector<std::uint64_t> write_expired;
    for (const auto& [id, conn] : conns) {
      if (!conn->read_closed && conn->read_deadline.expired()) {
        read_expired.push_back(id);
      } else if (!conn->outbuf.empty() && conn->write_deadline.expired()) {
        write_expired.push_back(id);
      }
    }
    for (const std::uint64_t id : read_expired) {
      auto it = conns.find(id);
      if (it != conns.end()) fail_read_timeout(*it->second);
    }
    for (const std::uint64_t id : write_expired) {
      auto it = conns.find(id);
      if (it != conns.end()) {
        LoopMetrics::get().io_timeouts.add(1);
        fail_conn(*it->second, "session write timed out");
      }
    }
  }

  void enter_drain() {
    if (draining) return;
    draining = true;
    drain_deadline = Deadline::after_ms(options.drain_timeout_ms);
    listener.close_listener();  // closing also deregisters it from epoll
    server.begin_drain();
    // Stop reading everywhere; sessions finish in-flight work and flush.
    // Mid-frame input ends as at EOF: the partial block is submitted and
    // the parse error is the final answer.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (const auto& [id, conn] : conns) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      auto it = conns.find(id);
      if (it != conns.end() && !it->second->read_closed) {
        end_input(*it->second);
      } else if (it != conns.end()) {
        maybe_close(*it->second);
      }
    }
  }

  bool drained() const {
    return conns.empty() && server.scheduler().pending() == 0;
  }

  // --- the loop ---------------------------------------------------------

  int run() {
    for (;;) {
      // With neither a listener nor a session left (stdio EOF, or a fatal
      // accept error once the last client leaves) nothing can arrive: drain.
      if (!draining &&
          (stop_requested.load() || server.stop_requested() ||
           server.draining() || (listener.fd() < 0 && conns.empty()))) {
        enter_drain();
      }
      if (draining) {
        if (drained()) return 0;
        if (drain_deadline.expired()) {
          SA_LOG_WARN << "event loop: drain timeout with "
                      << server.scheduler().pending() << " request(s) and "
                      << conns.size() << " connection(s) still open";
          std::vector<std::uint64_t> ids;
          for (const auto& [id, conn] : conns) ids.push_back(id);
          for (const std::uint64_t id : ids) {
            auto it = conns.find(id);
            if (it != conns.end()) close_conn(*it->second);
          }
          return 1;
        }
      }

      const auto events = wait(wait_timeout_ms());
      drain_wake_fd();
      std::vector<Completion> completions;
      {
        std::lock_guard<std::mutex> lock(waker->mutex);
        completions.swap(waker->queue);
      }

      if (!events.empty() || !completions.empty()) {
        obs::ScopedSpan span("loop.iteration", "serve");
        span.arg("events", static_cast<std::int64_t>(events.size()));
        span.arg("completions",
                 static_cast<std::int64_t>(completions.size()));

        for (Completion& done : completions) {
          apply_completion(std::move(done));
        }
        for (const auto& [id, revents] : events) {
          if (id == kWakeId) continue;  // already drained above
          if (id == kListenerId) {
            do_accept();
            continue;
          }
          auto it = conns.find(id);
          if (it == conns.end()) continue;  // closed earlier this iteration
          const bool readable = (revents & EPOLLIN) != 0;
          const bool writable = (revents & EPOLLOUT) != 0;
          const bool broken = (revents & (EPOLLERR | EPOLLHUP)) != 0;
          if (readable || (broken && !it->second->read_closed)) {
            do_read(id);
            it = conns.find(id);
            if (it == conns.end()) continue;
          }
          if (writable && !it->second->outbuf.empty()) {
            try_write(*it->second);
            it = conns.find(id);
            if (it == conns.end()) continue;
          }
          if (broken && it->second->read_closed) {
            // Peer fully gone while we wait on its in-flight work: without
            // this the level-triggered poller reports the corpse forever.
            fail_conn(*it->second, "peer closed mid-flight");
          }
        }
      }

      check_io_deadlines();
    }
  }
};

EventLoopServer::EventLoopServer(SynthServer& server, EventLoopOptions options)
    : impl_(std::make_unique<Impl>(server, options)) {}

EventLoopServer::~EventLoopServer() = default;

bool EventLoopServer::start(std::string* error) { return impl_->start(error); }

bool EventLoopServer::start_on(int fd, std::string* error) {
  return impl_->start_on(fd, error);
}

int EventLoopServer::port() const { return impl_->listener.port(); }

int EventLoopServer::run() { return impl_->run(); }

void EventLoopServer::request_stop() {
  impl_->stop_requested.store(true);
  impl_->waker->wake();
}

std::int64_t EventLoopServer::open_connections() const {
  return impl_->open_count.load();
}

}  // namespace sasynth
