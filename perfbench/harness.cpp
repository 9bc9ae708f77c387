// perfbench harness: the three native pieces behind perfbench/run.py.
//
//   client  single-threaded epoll client that replays a request stream
//           against a running sasynthd over loopback TCP, closed loop (one
//           connection, next request on the previous response) or open loop
//           (every request sent at its due time on its connection), and
//           records per-request timestamps and response text.
//   check   verifies every distinct response of a run against the models:
//           ok verdict, design reload, device fit, reported GOPS and clock,
//           and model-vs-simulator agreement.
//   trace   drives a request stream in-process through each layer's public
//           functions with the benchmark's own spans around every call, plus
//           the untraced SynthServer entry points for comparison.
//
// Stream files hold entries of the form
//   @ <conn> <due_us>
//   <request block lines>
//   end
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/design_io.h"
#include "core/dse.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "core/unified.h"
#include "deploy/fleet.h"
#include "deploy/fold.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "serve/deploy_protocol.h"
#include "serve/design_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "serve/sweep_cache.h"
#include "sim/perf_sim.h"

namespace sasynth {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

struct Entry {
  int conn = 0;
  std::int64_t due_us = 0;
  std::string text;
};

std::vector<Entry> read_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<Entry> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] != '@') die("malformed stream entry: " + line);
    Entry e;
    char at = 0;
    long long due = 0;
    std::istringstream head(line);
    if (!(head >> at >> e.conn >> due)) die("malformed stream header: " + line);
    e.due_us = due;
    while (std::getline(in, line)) {
      e.text += line + "\n";
      if (line == "end") break;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Value of `key=` inside a space-separated line, or NaN.
double field(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || line[pos - 1] == ' ') {
      return std::strtod(line.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return std::nan("");
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const char* fallback = nullptr) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  if (fallback == nullptr) die("missing " + flag);
  return fallback;
}

// ---------------------------------------------------------------- client

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> pending;  ///< entry indices awaiting a response
  bool want_write = false;
};

struct Outcome {
  double due_us = -1;
  double send_us = -1;
  double done_us = -1;
  std::string response;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    die("connect failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

int run_client(int argc, char** argv) {
  const int port = std::atoi(arg_value(argc, argv, "--port").c_str());
  const int nconns = std::atoi(arg_value(argc, argv, "--conns", "1").c_str());
  const bool open_loop = arg_value(argc, argv, "--mode") == "open";
  const double seconds = std::atof(arg_value(argc, argv, "--seconds").c_str());
  // A closed loop with --count stops after that many requests instead of at
  // --seconds (the fixed-size stream of a traced run).
  const long count = std::atol(arg_value(argc, argv, "--count", "0").c_str());
  const std::vector<Entry> entries = read_stream(arg_value(argc, argv, "--stream"));
  const std::string out_prefix = arg_value(argc, argv, "--out");
  if (entries.empty() || nconns < 1) die("empty stream");

  // Open-loop sends are due at microsecond offsets; default timer slack
  // (50us) would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int ep = ::epoll_create1(0);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (ep < 0 || tfd < 0) die("epoll/timerfd failed");
  std::vector<Conn> conns(static_cast<std::size_t>(nconns));
  for (int c = 0; c < nconns; ++c) {
    conns[c].fd = connect_loopback(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = 0xffffffffu;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  }

  std::vector<Outcome> outcome(entries.size());
  const Clock::time_point start = Clock::now();
  timespec start_ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &start_ts);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool stop_sending = false;

  auto flush = [&](int c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        die("write failed: " + std::string(std::strerror(errno)));
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    const bool want = !conn.out.empty();
    if (want != conn.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = static_cast<std::uint32_t>(c);
      ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = want;
    }
  };
  auto send_entry = [&](std::size_t i, int c, double due_us) {
    Conn& conn = conns[c];
    outcome[i].due_us = due_us;
    outcome[i].send_us = us_between(start, Clock::now());
    conn.out += entries[i].text;
    conn.pending.push_back(i);
    ++outstanding;
    flush(c);
  };
  auto arm_timer = [&](std::int64_t due_us) {
    itimerspec spec{};
    std::int64_t ns = start_ts.tv_nsec + (due_us % 1000000) * 1000;
    spec.it_value.tv_sec = start_ts.tv_sec + due_us / 1000000 + ns / 1000000000;
    spec.it_value.tv_nsec = ns % 1000000000;
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
  };
  // Sends everything due by now (open loop) or the next request when the
  // connection is idle (closed loop); arms the timer for the next due time.
  auto pump = [&]() {
    const double now_us = us_between(start, Clock::now());
    if (!stop_sending && (now_us >= seconds * 1e6 ||
                          (count > 0 && next >= static_cast<std::size_t>(count)))) {
      stop_sending = true;
    }
    if (stop_sending || next >= entries.size()) return;
    if (!open_loop) {
      if (conns[0].pending.empty()) {
        send_entry(next, 0, us_between(start, Clock::now()));
        ++next;
      }
      return;
    }
    while (next < entries.size() &&
           static_cast<double>(entries[next].due_us) <= now_us) {
      send_entry(next, entries[next].conn % nconns,
                 static_cast<double>(entries[next].due_us));
      ++next;
    }
    if (next < entries.size()) arm_timer(entries[next].due_us);
  };

  pump();
  const double give_up_us = (seconds + 150.0) * 1e6;
  std::vector<epoll_event> events(static_cast<std::size_t>(nconns) + 1);
  char buf[65536];
  while (true) {
    const bool sending_done = stop_sending || next >= entries.size();
    if (sending_done && outstanding == 0) break;
    if (us_between(start, Clock::now()) > give_up_us) die("responses timed out");
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 200);
    if (n < 0 && errno != EINTR) die("epoll_wait failed");
    for (int k = 0; k < n; ++k) {
      const std::uint32_t tag = events[k].data.u32;
      if (tag == 0xffffffffu) {
        std::uint64_t expirations = 0;
        while (::read(tfd, &expirations, sizeof(expirations)) > 0) {
        }
        continue;
      }
      const int c = static_cast<int>(tag);
      Conn& conn = conns[c];
      if (events[k].events & EPOLLOUT) flush(c);
      if (!(events[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      while (true) {
        const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
        if (r > 0) {
          const double now_us = us_between(start, Clock::now());
          conn.in.append(buf, static_cast<std::size_t>(r));
          // A response is complete at its "end" line.
          std::size_t pos = 0;
          std::size_t block_start = 0;
          while (true) {
            const std::size_t nl = conn.in.find('\n', pos);
            if (nl == std::string::npos) break;
            const bool is_end = conn.in.compare(pos, nl - pos, "end") == 0;
            pos = nl + 1;
            if (!is_end) continue;
            if (conn.pending.empty()) die("unsolicited response");
            const std::size_t i = conn.pending.front();
            conn.pending.pop_front();
            --outstanding;
            outcome[i].done_us = now_us;
            outcome[i].response = conn.in.substr(block_start, pos - block_start);
            block_start = pos;
          }
          conn.in.erase(0, block_start);
        } else if (r < 0 && errno == EINTR) {
          continue;
        } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          die("daemon closed the connection");
        }
      }
    }
    pump();
  }
  const double elapsed_us = us_between(start, Clock::now());
  for (Conn& conn : conns) ::close(conn.fd);
  ::close(tfd);
  ::close(ep);

  std::ofstream lat(out_prefix + ".lat");
  std::ofstream resp(out_prefix + ".resp");
  lat << "elapsed_us " << std::fixed << elapsed_us << "\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (outcome[i].send_us < 0) continue;
    lat << i << " " << outcome[i].due_us << " " << outcome[i].send_us << " "
        << outcome[i].done_us << "\n";
    resp << "@ " << i << " 0\n" << outcome[i].response;
  }
  return 0;
}

// ----------------------------------------------------------------- check

/// Model-vs-simulator band (EXPERIMENTS.md, DEPLOYMENT.md): 2% when no loop
/// clips or pads; otherwise the clip-heavy band. On memory-bound designs the
/// model charges full-block DRAM traffic where the simulator moves clipped
/// footprints, so there it is a lower bound and only the low side applies.
std::string check_against_sim(const LoopNest& nest, const DesignPoint& design,
                              const FpgaDevice& device, DataType dtype,
                              double lo_clipped, double hi_clipped) {
  const deploy::FoldPlan plan = deploy::plan_fold(nest, design);
  if (!plan.feasible) return "fold infeasible: " + plan.error;
  bool irregular = false;
  for (const deploy::LoopFold& f : plan.loops) {
    if (f.granules % f.middle != 0 || f.pad != 0) irregular = true;
  }
  PerfSimOptions sim_options;
  sim_options.freq_mhz = 250.0;
  sim_options.ddr_overhead_cycles = 0;
  const PerfSimResult board =
      simulate_performance(nest, plan.design, device, dtype, sim_options);
  const FoldedPerfEstimate model =
      estimate_folded_performance(nest, plan.design, device, dtype, 250.0);
  if (!(model.perf.throughput_gops > 0.0)) return "model reports 0 GOPS";
  const double ratio = board.achieved_gops / model.perf.throughput_gops;
  const double lo = irregular ? lo_clipped : 0.98;
  const double hi = model.perf.memory_bound ? HUGE_VAL
                    : irregular              ? hi_clipped
                                             : 1.02;
  if (ratio < lo || ratio > hi) {
    char msg[160];
    std::snprintf(msg, sizeof(msg), "sim/model ratio %.4f outside [%.2f,%.2f]",
                  ratio, lo, hi);
    return msg;
  }
  return "";
}

std::string check_synth(const std::string& request, const std::string& response,
                        int* simulated) {
  const ParsedRequest parsed = parse_request_block(request);
  if (!parsed.ok) return "request does not parse: " + parsed.error;
  const ServeRequest& req = parsed.request;
  const std::vector<std::string> lines = split_lines(response);
  if (lines.size() != 8 || lines[0] != "sasynth-response v1 ok") {
    return "not an ok response: " + (lines.empty() ? "" : lines[0]);
  }
  const LoopNest nest = build_conv_nest(req.layer);
  const std::string blob =
      lines[1] + "\n" + lines[2] + "\n" + lines[3] + "\n" + lines[4] + "\n";
  const DesignLoadResult loaded = load_design_text(blob, nest);
  if (!loaded.ok) return "design does not reload: " + loaded.error;
  const ResourceUsage usage =
      model_resources(nest, loaded.design, req.device, req.dtype);
  if (!usage.report.fits() || usage.bram_blocks > req.device.bram_blocks) {
    return "design does not fit the device";
  }
  if (field(lines[6], "dsp") != static_cast<double>(usage.report.dsp_blocks) ||
      field(lines[6], "bram") != static_cast<double>(usage.report.bram_blocks)) {
    return "reported resources differ from model_resources";
  }
  const double freq = field(lines[5], "freq_mhz");
  const double gops = field(lines[5], "throughput_gops");
  const double realized = pseudo_pnr_frequency_mhz(req.device, usage.report,
                                                   loaded.design.signature());
  if (!close_rel(freq, realized, 1e-6)) return "reported clock differs";
  const PerfEstimate est =
      estimate_performance(nest, loaded.design, req.device, req.dtype, freq);
  if (!close_rel(est.throughput_gops, gops, 1e-5)) {
    return "reported GOPS not reproduced by estimate_performance";
  }
  ++*simulated;
  return check_against_sim(nest, loaded.design, req.device, req.dtype, 0.85,
                           1.15);
}

std::string check_deploy(const std::string& request,
                         const std::string& response, int* simulated) {
  const ParsedDeployRequest parsed = parse_deploy_request_block(request);
  if (!parsed.ok) return "request does not parse: " + parsed.error;
  const DeployRequest& req = parsed.request;
  const std::vector<std::string> lines = split_lines(response);
  if (lines.size() < 3 || lines[0] != "sasynth-response v1 ok") {
    return "not an ok response: " + (lines.empty() ? "" : lines[0]);
  }
  std::vector<Network> nets;
  std::vector<LoopNest> all_nests;
  for (const DeployWorkloadItem& item : req.workload) {
    Network net;
    parse_network_name(item.network, &net);
    for (const ConvLayerDesc& layer : net.layers) {
      all_nests.push_back(build_conv_nest(layer));
    }
    nets.push_back(std::move(net));
  }
  const LoopNest env = unified_envelope_nest(all_nests);
  std::vector<DesignPoint> designs;
  std::vector<double> freqs;
  double weighted_ops = 0.0;
  double weighted_latency = 0.0;
  std::size_t assigned = 0;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("design ", 0) == 0) {
      if (i + 4 >= lines.size()) return "truncated design stanza";
      const std::string blob = lines[i + 1] + "\n" + lines[i + 2] + "\n" +
                               lines[i + 3] + "\n" + lines[i + 4] + "\n";
      const DesignLoadResult loaded =
          load_design_text(blob, env, DesignLoadMode::kFolded);
      if (!loaded.ok) return "fleet design does not reload: " + loaded.error;
      const ResourceUsage usage = model_resources(
          all_nests.front(), loaded.design, req.device, req.dtype);
      if (!usage.report.fits() || usage.bram_blocks > req.device.bram_blocks) {
        return "fleet design does not fit the device";
      }
      const double realized = pseudo_pnr_frequency_mhz(
          req.device, usage.report, loaded.design.signature());
      if (!close_rel(field(line, "freq_mhz"), realized, 1e-6)) {
        return "reported fleet clock differs";
      }
      designs.push_back(loaded.design);
      freqs.push_back(realized);
      i += 4;
    } else if (line.rfind("assign ", 0) == 0) {
      std::istringstream words(line);
      std::string tag, name;
      words >> tag >> name;
      const auto d = static_cast<std::size_t>(field(line, "design"));
      if (assigned >= nets.size() || d >= designs.size()) {
        return "assign line out of range";
      }
      const Network& net = nets[assigned];
      const double weight = req.workload[assigned].weight;
      ++assigned;
      const deploy::FixedDesignEval eval =
          deploy::evaluate_fixed_design(net, designs[d], req.device, req.dtype);
      if (!eval.valid) return "assigned design invalid: " + eval.error;
      if (!close_rel(eval.aggregate_gops, field(line, "gops"), 1e-5)) {
        return "reported network GOPS not reproduced by the folded models";
      }
      weighted_ops += weight * static_cast<double>(net.total_ops());
      weighted_latency += weight * eval.total_latency_ms;
      std::set<std::string> seen;
      for (const ConvLayerDesc& layer : net.layers) {
        ConvLayerDesc dims = layer;
        dims.name.clear();
        if (!seen.insert(dims.summary()).second) continue;
        ++*simulated;
        const std::string err =
            check_against_sim(build_conv_nest(layer), designs[d], req.device,
                              req.dtype, 0.55, 1.10);
        if (!err.empty()) return layer.name + ": " + err;
      }
    }
  }
  if (designs.empty() || assigned != nets.size()) return "incomplete fleet";
  const double weighted_gops = weighted_ops / (weighted_latency * 1e6);
  if (!close_rel(weighted_gops, field(lines[1], "weighted_gops"), 1e-5)) {
    return "reported weighted GOPS not reproduced";
  }
  return "";
}

int run_check(int argc, char** argv) {
  const std::vector<Entry> requests = read_stream(arg_value(argc, argv, "--stream"));
  const std::vector<Entry> responses =
      read_stream(arg_value(argc, argv, "--responses"));
  // Responses are tagged by stream index in the conn slot of the header.
  std::set<std::string> checked;
  int simulated = 0;
  int failed = 0;
  for (const Entry& r : responses) {
    const auto i = static_cast<std::size_t>(r.conn);
    if (i >= requests.size()) die("response index out of range");
    const std::string& request = requests[i].text;
    if (!checked.insert(request).second) continue;
    const std::string error =
        request.rfind(kDeployRequestMagic, 0) == 0
            ? check_deploy(request, r.text, &simulated)
            : check_synth(request, r.text, &simulated);
    if (!error.empty()) {
      ++failed;
      std::printf("fail %zu %s\n", i, error.c_str());
    }
  }
  std::printf("checked %zu failed %d simulated %d\n", checked.size(), failed,
              simulated);
  return 0;
}

// ----------------------------------------------------------------- trace

/// The benchmark's own spans: one record per request, span name -> us.
class Record {
 public:
  explicit Record(std::string kind) : kind_(std::move(kind)) {}
  template <typename F>
  auto span(const char* name, F&& body) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      add(name, us_between(t0, Clock::now()));
    } else {
      auto result = body();
      add(name, us_between(t0, Clock::now()));
      return result;
    }
  }
  void add(const std::string& name, double value) { values_.emplace_back(name, value); }
  void print() const {
    std::printf("rec %s", kind_.c_str());
    for (const auto& [name, value] : values_) std::printf(" %s=%.3f", name.c_str(), value);
    std::printf("\n");
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, double>> values_;
};

/// The daemon's in-memory configuration, for the in-process replicas.
ServeOptions daemon_like_options() {
  ServeOptions options;
  options.jobs = 2;
  return options;
}

/// One synthesis request through parse -> nest -> cache -> DSE -> models ->
/// format, mirroring SynthServer::handle, with a span around every call.
std::string trace_synth(const std::string& text, DesignCache& cache,
                        SweepCache& sweep, bool* explored) {
  Record rec("synth");
  const Clock::time_point t0 = Clock::now();
  const ParsedRequest parsed = rec.span("serve.parse", [&] { return parse_request_block(text); });
  if (!parsed.ok) die("trace: request does not parse: " + parsed.error);
  ServeRequest request = parsed.request;
  request.dse.sweep_memo = &sweep;
  const LoopNest nest = rec.span("loopnest.nest", [&] {
    LoopNest n = build_conv_nest(request.layer);
    const ReuseMatrix reuse = analyze_reuse(n);
    if (reuse.num_loops() == 0) die("trace: empty reuse matrix");
    return n;
  });
  DesignPoint design;
  const std::string canonical = canonical_request_text(request);
  const bool hit = rec.span("serve.cache_lookup", [&] {
    return cache.lookup(canonical, nest, &design);
  });
  rec.add("hit", hit ? 1 : 0);
  if (!hit) {
    *explored = true;
    const DesignSpaceExplorer explorer(request.device, request.dtype, request.dse);
    const DseResult result = rec.span("core.explore", [&] { return explorer.explore(nest); });
    if (result.empty()) die("trace: DSE found no design");
    const DseStats& s = result.stats;
    rec.add("core.phase1", s.phase1_seconds * 1e6);
    rec.add("core.phase2", s.phase2_seconds * 1e6);
    rec.add("core.phase1_cpu", s.phase1_cpu_seconds * 1e6);
    rec.add("core.jobs", s.jobs_used);
    rec.add("core.work_items", static_cast<double>(s.work_items));
    rec.add("core.seed_evals", static_cast<double>(s.bound_seed_evaluated));
    rec.add("core.items_pruned_bound", static_cast<double>(s.items_pruned_bound));
    rec.add("core.reuse_evaluated", static_cast<double>(s.reuse_evaluated));
    design = result.best()->design;
    rec.span("serve.cache_insert", [&] { cache.insert(canonical, design); });
  }
  const std::string response = rec.span("core.evaluate_models", [&] {
    const ResourceUsage resources =
        model_resources(nest, design, request.device, request.dtype);
    const double freq = pseudo_pnr_frequency_mhz(request.device, resources.report,
                                                 design.signature());
    const PerfEstimate realized =
        estimate_performance(nest, design, request.device, request.dtype, freq);
    const double latency_ms = layer_latency_ms(request.layer, realized);
    return rec.span("serve.format", [&] {
      return format_ok_response(design, realized, resources.report, latency_ms);
    });
  });
  rec.add("request", us_between(t0, Clock::now()));
  rec.print();
  return response;
}

/// One deploy request through parse -> nests -> cache -> unified candidates
/// -> fleet selection -> fleet evaluation -> format.
std::string trace_deploy(const std::string& text, DesignCache& cache) {
  Record rec("deploy");
  const Clock::time_point t0 = Clock::now();
  const ParsedDeployRequest parsed =
      rec.span("serve.parse", [&] { return parse_deploy_request_block(text); });
  if (!parsed.ok) die("trace: deploy request does not parse: " + parsed.error);
  const DeployRequest& request = parsed.request;
  std::vector<deploy::WorkloadEntry> workload;
  std::vector<LoopNest> nests;
  rec.span("loopnest.nest", [&] {
    for (const DeployWorkloadItem& item : request.workload) {
      deploy::WorkloadEntry entry;
      parse_network_name(item.network, &entry.net);
      entry.weight = item.weight;
      for (const ConvLayerDesc& layer : entry.net.layers) {
        nests.push_back(build_conv_nest(layer));
        if (analyze_reuse(nests.back()).num_loops() == 0) die("trace: empty reuse");
      }
      workload.push_back(std::move(entry));
    }
  });
  const std::string canonical = canonical_deploy_request_text(request);
  const LoopNest env = unified_envelope_nest(nests);
  const bool hit = rec.span("serve.cache_lookup", [&] {
    DesignPoint design;
    return cache.lookup(deploy_cache_entry_text(canonical, 0, request.fleet_size),
                        env, &design);
  });
  if (hit) die("trace: deploy stream repeats a request");
  rec.add("hit", 0);
  UnifiedOptions unified;
  unified.dse = request.dse;
  deploy::FleetOptions fleet_options;
  fleet_options.unified = unified;
  fleet_options.num_designs = request.fleet_size;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& pairs = registry.counter("unified_pairs_total");
  obs::Counter& shortlist = registry.counter("unified_shortlist_total");
  obs::Counter& mapped = registry.counter("deploy_mapped_total");
  const std::int64_t pairs0 = pairs.value();
  const std::int64_t shortlist0 = shortlist.value();
  const std::int64_t mapped0 = mapped.value();
  const deploy::FleetResult selected = rec.span("deploy.select_fleet", [&] {
    return deploy::select_fleet(workload, request.device, request.dtype, fleet_options);
  });
  if (!selected.valid) die("trace: fleet selection failed: " + selected.error);
  for (int i = 0; i < static_cast<int>(selected.designs.size()); ++i) {
    cache.insert(deploy_cache_entry_text(canonical, i, request.fleet_size),
                 selected.designs[static_cast<std::size_t>(i)]);
  }
  const deploy::FleetResult evaluated = rec.span("deploy.evaluate_fleet", [&] {
    return deploy::evaluate_fleet(workload, selected.designs, request.device,
                                  request.dtype);
  });
  rec.add("core.unified_pairs", static_cast<double>(pairs.value() - pairs0));
  rec.add("core.unified_shortlist", static_cast<double>(shortlist.value() - shortlist0));
  rec.add("deploy.fold_plans", static_cast<double>(mapped.value() - mapped0));
  const std::string response =
      rec.span("serve.format", [&] { return format_deploy_ok_response(evaluated); });
  rec.add("request", us_between(t0, Clock::now()));

  // select_fleet enumerates unified candidates once for the merged workload
  // and once per network; that call is timed here on its own, outside the
  // request, so that select_fleet's self time can be split out.
  Network merged;
  merged.name = "mix";
  for (const deploy::WorkloadEntry& w : workload) {
    merged.layers.insert(merged.layers.end(), w.net.layers.begin(), w.net.layers.end());
  }
  rec.span("core.unified_candidates", [&] {
    return enumerate_unified_candidates(merged, request.device, request.dtype, unified);
  });
  rec.add("deploy.candidate_sources", static_cast<double>(1 + workload.size()));
  rec.print();
  return response;
}

/// The worker side of the shard tier: the request's phase-1 item space split
/// over two peers exactly as the coordinator's first round splits it, each
/// window timed through SynthServer::handle_shard.
void trace_shard(const std::string& text, SynthServer& worker) {
  const ParsedRequest parsed = parse_request_block(text);
  if (!parsed.ok) die("trace: request does not parse");
  ServeRequest request = parsed.request;
  request.dse.auto_relax_util = false;
  const LoopNest nest = build_conv_nest(request.layer);
  const DesignSpaceExplorer explorer(request.device, request.dtype, request.dse);
  const std::int64_t total = explorer.count_phase1_items(nest);
  constexpr std::int64_t kPeers = 2;
  for (std::int64_t p = 0; p < kPeers; ++p) {
    Record rec("shard");
    const std::string block = format_shard_request_block(
        request, total * p / kPeers, total * (p + 1) / kPeers, -1);
    const std::string response =
        rec.span("serve.shard_rpc", [&] { return worker.handle_shard(block); });
    if (response.rfind(kShardResponseMagic + std::string(" ok"), 0) != 0) {
      die("trace: shard window failed: " + response);
    }
    rec.print();
  }
}

/// Untraced comparison: the same request through SynthServer's own entry
/// point on a replica that has seen the same history.
std::string time_handle(const char* kind, const std::string& text, SynthServer& server) {
  Record rec(kind);
  const bool is_deploy = text.rfind(kDeployRequestMagic, 0) == 0;
  const std::string response = rec.span("serve.handle", [&] {
    return is_deploy ? server.handle_deploy(text) : server.handle(text);
  });
  rec.print();
  return response;
}

int run_trace(int argc, char** argv) {
  const std::vector<Entry> entries = read_stream(arg_value(argc, argv, "--stream"));
  const long count = std::atol(arg_value(argc, argv, "--count").c_str());
  const std::string hot_path = arg_value(argc, argv, "--hot", "");
  const bool shard = arg_value(argc, argv, "--shard", "0") == "1";
  const std::string probe_synth = arg_value(argc, argv, "--probe-synth");
  const std::string probe_deploy = arg_value(argc, argv, "--probe-deploy");
  obs::set_metrics_enabled(true);

  const ServeOptions options = daemon_like_options();
  DesignCache cache("", options.cache_capacity);
  SweepCache sweep(options.sweep_cache_capacity);
  SynthServer replica(options);
  SynthServer worker(options);
  if (!hot_path.empty()) {
    std::string ignored;
    for (const Entry& e : read_stream(hot_path)) {
      // Warm both sides the way the daemon's pre-fill does.
      {
        const ParsedRequest parsed = parse_request_block(e.text);
        if (!parsed.ok) die("trace: hot request does not parse");
        ServeRequest request = parsed.request;
        request.dse.sweep_memo = &sweep;
        const LoopNest nest = build_conv_nest(request.layer);
        const DesignSpaceExplorer explorer(request.device, request.dtype, request.dse);
        const DseResult result = explorer.explore(nest);
        if (result.empty()) die("trace: hot request has no design");
        cache.insert(canonical_request_text(request), result.best()->design);
      }
      ignored = replica.handle(e.text);
    }
  }

  bool saw_deploy = false;
  bool saw_explore = false;
  const std::size_t n = std::min<std::size_t>(entries.size(), static_cast<std::size_t>(count));
  std::vector<std::string> responses;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& text = entries[i].text;
    std::string traced;
    if (text.rfind(kDeployRequestMagic, 0) == 0) {
      saw_deploy = true;
      traced = trace_deploy(text, cache);
    } else {
      traced = trace_synth(text, cache, sweep, &saw_explore);
      if (shard) trace_shard(text, worker);
    }
    responses.push_back(time_handle("handle", text, replica));
    if (responses.back() != traced) die("trace: in-process layers and SynthServer disagree");
  }
  // The same requests again, now cache hits: the in-process half of the
  // transport estimate (run.py replays them against the daemon too).
  for (std::size_t i = 0; i < n; ++i) {
    if (time_handle("handle_hit", entries[i].text, replica) != responses[i]) {
      die("trace: a repeated request changed its response");
    }
  }
  // Layers this stream never enters are measured on a fixed probe, so every
  // per-layer metric exists on every workload and reads flat where unused.
  if (!saw_explore) {
    DesignCache probe_cache("", 16);
    SweepCache probe_sweep(16);
    trace_synth(probe_synth, probe_cache, probe_sweep, &saw_explore);
  }
  if (!shard) trace_shard(probe_synth, worker);
  if (!saw_deploy) {
    DesignCache probe_cache("", 16);
    trace_deploy(probe_deploy, probe_cache);
  }
  return 0;
}

}  // namespace
}  // namespace sasynth

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness client|check|trace ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "client") return sasynth::run_client(argc, argv);
  if (mode == "check") return sasynth::run_check(argc, argv);
  if (mode == "trace") return sasynth::run_trace(argc, argv);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
