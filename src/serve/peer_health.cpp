#include "serve/peer_health.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "serve/tcp.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sasynth {

namespace {

/// Process-global breaker/probe instrumentation (docs/OBSERVABILITY.md).
/// Per-peer state gauges are registered per registry (the name carries the
/// peer index), so only the fleet-wide totals live here.
struct HealthMetrics {
  obs::Counter& breaker_opens;  ///< closed/half-open -> open transitions
  obs::Counter& probes;         ///< background pings attempted

  static HealthMetrics& get() {
    static HealthMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new HealthMetrics{
          r.counter("shard_breaker_opens_total"),
          r.counter("shard_probes_total"),
      };
    }();
    return *m;
  }
};

std::int64_t ms_between(PeerHealthRegistry::Clock::time_point from,
                        PeerHealthRegistry::Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
      .count();
}

}  // namespace

const char* peer_state_name(PeerState state) {
  switch (state) {
    case PeerState::kClosed:
      return "closed";
    case PeerState::kHalfOpen:
      return "half_open";
    case PeerState::kOpen:
      return "open";
  }
  return "unknown";
}

std::string split_peer_host_port(const std::string& peer, std::string* host,
                                 int* port) {
  const std::size_t colon = peer.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= peer.size()) {
    return "bad peer '" + peer + "' (expected host:port)";
  }
  *host = peer.substr(0, colon);
  std::int64_t p = 0;
  if (!parse_int64_strict(peer.substr(colon + 1), &p) || p < 1 || p > 65535) {
    return "bad peer '" + peer + "' (port must be an integer in 1..65535)";
  }
  in_addr probe{};
  const std::string numeric = *host == "localhost" ? "127.0.0.1" : *host;
  if (inet_pton(AF_INET, numeric.c_str(), &probe) != 1) {
    return "bad peer host '" + *host +
           "' (expected a numeric IPv4 address or localhost)";
  }
  *port = static_cast<int>(p);
  return "";
}

int connect_peer_fd(const std::string& peer, std::int64_t timeout_ms,
                    std::string* error) {
  std::string host;
  int port = 0;
  const std::string parse_error = split_peer_host_port(peer, &host, &port);
  if (!parse_error.empty()) {
    *error = parse_error;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  ::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int wait_ms =
        timeout_ms > 0
            ? static_cast<int>(std::min<std::int64_t>(timeout_ms, INT_MAX))
            : -1;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr <= 0) {
      ::close(fd);
      *error = pr == 0 ? "connect timed out"
                       : std::string("poll: ") + std::strerror(errno);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      ::close(fd);
      *error = std::string("connect: ") + std::strerror(so_error);
      return -1;
    }
  } else if (rc != 0) {
    ::close(fd);
    *error = std::string("connect: ") + std::strerror(errno);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

bool probe_peer_ping(const std::string& peer, std::int64_t timeout_ms,
                     std::string* error) {
  static fault::Site& probe_site = fault::site(fault::kSiteShardProbe);
  if (probe_site.fire() != fault::ErrorKind::kNone) {
    *error = "injected fault at shard.probe";
    return false;
  }
  const int fd = connect_peer_fd(peer, timeout_ms, error);
  if (fd < 0) return false;
  if (!write_all_fd(fd, "ping\n", timeout_ms)) {
    ::close(fd);
    *error = "ping write failed";
    return false;
  }
  FdLineReader reader(fd, timeout_ms);
  std::string line;
  bool pong = false;
  while (reader.read_line(&line)) {
    const std::string text = trim(line);
    if (text == "sasynth-pong v1") pong = true;
    if (text == "end") break;
  }
  ::close(fd);
  if (!pong) {
    *error = "no pong before the end line";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// PeerHealthRegistry

struct PeerHealthRegistry::Peer {
  std::string address;
  PeerState state = PeerState::kClosed;
  int consecutive_failures = 0;
  /// Consecutive failed probe cycles since the breaker opened; indexes the
  /// deterministic backoff schedule.
  std::int64_t backoff_round = 0;
  bool probe_in_flight = false;  ///< half-open single-flight latch
  std::int64_t breaker_opens = 0;
  std::int64_t probes = 0;
  std::string last_error;
  bool probed_ever = false;
  Clock::time_point last_probe{};
  bool next_probe_scheduled = false;
  Clock::time_point next_probe_at{};
  std::int64_t last_latency_us = -1;
  obs::Gauge* state_gauge = nullptr;  ///< shard_peer_state_p<i>

  void set_state(PeerState s) {
    state = s;
    if (state_gauge != nullptr) {
      state_gauge->set(static_cast<std::int64_t>(s));
    }
  }
};

PeerHealthRegistry::PeerHealthRegistry(std::vector<std::string> peers,
                                       PeerHealthOptions opts)
    : opts_(opts) {
  // Register the fleet totals up front so `stats --format=prom|json` shows
  // the rows (at zero) before the first breaker event.
  HealthMetrics::get();
  peers_.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    Peer peer;
    peer.address = std::move(peers[i]);
    // One gauge per fleet slot, indexed in --peers order (prom label support
    // is out of scope for the obs registry; the health command maps index to
    // address). set() is gated on metrics_enabled like every instrument.
    peer.state_gauge = &obs::MetricsRegistry::global().gauge(
        strformat("shard_peer_state_p%zu", i));
    peer.state_gauge->set(0);
    peers_.push_back(std::move(peer));
  }
}

PeerHealthRegistry::~PeerHealthRegistry() { stop_prober(); }

std::size_t PeerHealthRegistry::size() const { return peers_.size(); }

std::int64_t PeerHealthRegistry::backoff_ms(const PeerHealthOptions& opts,
                                            std::int64_t round) {
  const std::int64_t base = std::max<std::int64_t>(1, opts.probe_interval_ms);
  const std::int64_t cap = base * 16;
  if (round >= 4) return cap;  // 16x = the shift-4 step; later rounds clamp
  return std::min<std::int64_t>(base << round, cap);
}

PeerHealthRegistry::Admit PeerHealthRegistry::admit(std::size_t peer,
                                                    Clock::time_point now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mutex_);
  Peer& p = peers_[peer];
  switch (p.state) {
    case PeerState::kClosed:
      return Admit::kSend;
    case PeerState::kOpen:
      return Admit::kSkip;
    case PeerState::kHalfOpen:
      if (p.probe_in_flight) return Admit::kSkip;
      p.probe_in_flight = true;
      return Admit::kProbe;
  }
  return Admit::kSkip;
}

void PeerHealthRegistry::to_open(Peer& peer, Clock::time_point now) {
  peer.set_state(PeerState::kOpen);
  ++peer.breaker_opens;
  HealthMetrics::get().breaker_opens.add(1);
  peer.next_probe_scheduled = opts_.probe_interval_ms > 0;
  peer.next_probe_at =
      now + std::chrono::milliseconds(backoff_ms(opts_, peer.backoff_round));
  prober_cv_.notify_all();  // the prober re-derives its next due time
}

void PeerHealthRegistry::on_success(std::size_t peer, bool was_probe,
                                    std::int64_t latency_us,
                                    Clock::time_point now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mutex_);
  Peer& p = peers_[peer];
  if (was_probe) p.probe_in_flight = false;
  p.consecutive_failures = 0;
  p.backoff_round = 0;
  p.last_latency_us = latency_us;
  p.last_error.clear();
  if (p.state != PeerState::kClosed) {
    SA_LOG_INFO << "shard: peer " << p.address << " re-admitted ("
                << peer_state_name(p.state) << " -> closed)";
    p.next_probe_scheduled = false;
    p.set_state(PeerState::kClosed);
  }
}

void PeerHealthRegistry::on_failure(std::size_t peer, bool was_probe,
                                    const std::string& error,
                                    Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  Peer& p = peers_[peer];
  p.last_error = error;
  if (was_probe) {
    // The half-open trial failed: re-open one backoff step later. The
    // failure count stays at the threshold that tripped the breaker — the
    // schedule, not the count, carries the history now.
    p.probe_in_flight = false;
    ++p.backoff_round;
    SA_LOG_WARN << "shard: peer " << p.address
                << " failed its re-admission probe: " << error;
    to_open(p, now);
    return;
  }
  if (p.state != PeerState::kClosed) {
    // A late loser (hedged RPC that lost after the breaker already moved)
    // must not re-trip a breaker it no longer owns; bookkeeping only.
    return;
  }
  ++p.consecutive_failures;
  if (p.consecutive_failures >= opts_.failure_threshold) {
    SA_LOG_WARN << "shard: peer " << p.address << " breaker opened after "
                << p.consecutive_failures
                << " consecutive failures, last: " << error;
    to_open(p, now);
  }
}

void PeerHealthRegistry::record_probe_result(std::size_t peer, bool ok,
                                             const std::string& error,
                                             Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  Peer& p = peers_[peer];
  ++p.probes;
  p.probed_ever = true;
  p.last_probe = now;
  HealthMetrics::get().probes.add(1);
  if (p.state != PeerState::kOpen) return;  // raced a concurrent transition
  if (ok) {
    // A pong proves the process answers; the *real* trial is the next shard
    // request (single-flight, admit() hands out exactly one kProbe ticket).
    SA_LOG_INFO << "shard: peer " << p.address
                << " answered its health probe (open -> half_open)";
    p.next_probe_scheduled = false;
    p.set_state(PeerState::kHalfOpen);
  } else {
    p.last_error = error;
    ++p.backoff_round;
    p.next_probe_scheduled = opts_.probe_interval_ms > 0;
    p.next_probe_at =
        now + std::chrono::milliseconds(backoff_ms(opts_, p.backoff_round));
  }
}

int PeerHealthRegistry::probe_due_peers(Clock::time_point now) {
  // Collect due peers under the lock, ping without it (a ping can block up
  // to probe_timeout_ms), then apply each result. Only the prober moves
  // open peers, so the collected set cannot transition concurrently except
  // through on_success (which record_probe_result tolerates).
  std::vector<std::size_t> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = peers_[i];
      if (p.state == PeerState::kOpen && p.next_probe_scheduled &&
          p.next_probe_at <= now) {
        due.push_back(i);
      }
    }
  }
  for (const std::size_t i : due) {
    std::string address;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      address = peers_[i].address;
    }
    std::string error;
    const bool ok = probe_peer_ping(address, opts_.probe_timeout_ms, &error);
    record_probe_result(i, ok, error, Clock::now());
  }
  return static_cast<int>(due.size());
}

void PeerHealthRegistry::start_prober() {
  if (opts_.probe_interval_ms <= 0 || peers_.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (prober_.joinable()) return;
  prober_stop_ = false;
  prober_ = std::thread([this] { prober_loop(); });
}

void PeerHealthRegistry::stop_prober() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

void PeerHealthRegistry::prober_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!prober_stop_) {
    // Sleep until the earliest scheduled probe (or one interval, so a probe
    // scheduled while we slept is picked up promptly either way).
    Clock::time_point wake =
        Clock::now() + std::chrono::milliseconds(opts_.probe_interval_ms);
    for (const Peer& p : peers_) {
      if (p.state == PeerState::kOpen && p.next_probe_scheduled &&
          p.next_probe_at < wake) {
        wake = p.next_probe_at;
      }
    }
    prober_cv_.wait_until(lock, wake, [this] { return prober_stop_; });
    if (prober_stop_) return;
    lock.unlock();
    probe_due_peers(Clock::now());
    lock.lock();
  }
}

std::vector<PeerHealthSnapshot> PeerHealthRegistry::snapshot(
    Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PeerHealthSnapshot> out;
  out.reserve(peers_.size());
  for (const Peer& p : peers_) {
    PeerHealthSnapshot snap;
    snap.peer = p.address;
    snap.state = p.state;
    snap.consecutive_failures = p.consecutive_failures;
    snap.breaker_opens = p.breaker_opens;
    snap.probes = p.probes;
    snap.last_error = p.last_error;
    snap.last_probe_age_ms =
        p.probed_ever ? std::max<std::int64_t>(0, ms_between(p.last_probe, now))
                      : -1;
    snap.next_probe_in_ms =
        p.next_probe_scheduled ? std::max<std::int64_t>(
                                     0, ms_between(now, p.next_probe_at))
                               : -1;
    snap.last_latency_us = p.last_latency_us;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace sasynth
