#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sasynthd.

    python3 perfbench/run.py --workload cold_synth --seed 1 --seconds 20 --trace 0

Builds the daemon and the harness from the checkout (perfbench/CMakeLists.txt,
build tree under .bench_build/), starts real sasynthd processes on loopback
TCP, drives the workload's generated traffic from one single-threaded client,
checks every response, and prints one JSON result as the last stdout line.
--trace 1 runs the per-layer measurement instead (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing but .bench_build/ behind
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold_synth", "serve_mix", "cold_deploy", "sharded_cold")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2       # kept out of tuning; re-check gain claims on it
STARTUPS = 15          # daemon start-ups per run; setup_s takes their median
SERVE_RATE = 800.0     # serve_mix offered load, requests/s
SERVE_CONNS = 3
# Daemon environment, identical on every commit: one malloc arena and a fixed
# mmap threshold. Otherwise peak RSS depends on which threads touched the
# heap and on glibc's adaptive threshold, and swings by a third between runs.
DAEMON_ENV = {"MALLOC_ARENA_MAX": "1", "MALLOC_MMAP_THRESHOLD_": "65536",
              "MALLOC_TRIM_THRESHOLD_": "131072"}
# Fixed request counts of the traced run, per second of --seconds.
TRACE_RATE = {"cold_synth": 3.0, "serve_mix": 30.0, "cold_deploy": 0.6,
              "sharded_cold": 2.0}
CLK_TCK = os.sysconf("SC_CLK_TCK")


def steal_ticks():
    """Time the hypervisor ran something else on this VM's CPUs (all CPUs)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "sasynthd.cpp").is_file():
        log("perfbench: the sasynth sources (src/, tools/) are not in this checkout")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "sasynthd",
                  "perfbench_harness", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed")
            sys.exit(2)
    return (BUILD_DIR / "sasynth_tools" / "sasynthd",
            BUILD_DIR / "perfbench_harness")


class Daemon:
    """One sasynthd process on an ephemeral loopback port."""

    def __init__(self, exe, args, log_path):
        env = dict(os.environ, **DAEMON_ENV)
        env.pop("SASYNTH_JOBS", None)
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen([str(exe), "--port", "0", *args],
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     env=env)
        self.port = None

    def wait_ready(self):
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"sasynthd did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def command(self, text):
        with socket.create_connection(("127.0.0.1", self.port), timeout=120) as s:
            s.sendall(text.encode())
            buf = b""
            while not buf.endswith(b"end\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return buf.decode()

    def cpu_ticks(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM")

    def stop(self):
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise OSError("not listening yet")
                self.command("shutdown\n")
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Fleet:
    """The daemons of one workload: a single server, or a shard coordinator
    in front of two workers."""

    def __init__(self, exe, workload, work):
        self.daemons = []
        try:
            self._start(exe, workload, work)
        except BaseException:
            self.stop()
            raise

    def _start(self, exe, workload, work):
        if workload == "sharded_cold":
            workers = []
            for _ in range(2):
                workers.append(Daemon(exe, ["--jobs", "2"], work / "daemon.log"))
                self.daemons.append(workers[-1])
            for w in workers:
                w.wait_ready()
            peers = ",".join(f"127.0.0.1:{w.port}" for w in workers)
            self.front = Daemon(exe, ["--jobs", "2", "--peers", peers],
                                work / "daemon.log")
        else:
            jobs = "3" if workload == "serve_mix" else "2"
            self.front = Daemon(exe, ["--jobs", jobs], work / "daemon.log")
        self.daemons.append(self.front)
        self.front.wait_ready()
        if self.front.command("ping\n") != "sasynth-pong v1\nend\n":
            raise RuntimeError("daemon did not answer ping")

    def cpu_ticks(self):
        return sum(d.cpu_ticks() for d in self.daemons)

    def peak_rss_mb(self):
        return sum(d.peak_rss_kb() for d in self.daemons) / 1024.0

    def counters(self):
        """Summed `stats --format=json` counters and histogram sums/counts."""
        total = {}
        for d in self.daemons:
            text = d.command("stats --format=json\n")
            snap = json.loads(text[: text.rindex("end\n")])
            for k, v in snap["counters"].items():
                total[k] = total.get(k, 0) + v
            for k, h in snap["histograms"].items():
                total[k + ".sum"] = total.get(k + ".sum", 0) + h["sum"]
                total[k + ".count"] = total.get(k + ".count", 0) + h["count"]
        return total

    def stop(self):
        for d in reversed(self.daemons):
            d.stop()


def read_stream(path):
    """[(index_or_conn, text)] from a stream or response file."""
    out = []
    with open(path) as f:
        head, lines = None, []
        for line in f:
            if head is None:
                head = int(line.split()[1])
                lines = []
                continue
            lines.append(line)
            if line == "end\n":
                out.append((head, "".join(lines)))
                head = None
    return out


def run_client(harness, fleet, stream, out, *, mode, seconds, conns=1, count=0):
    cmd = [str(harness), "client", "--port", str(fleet.front.port),
           "--conns", str(conns), "--mode", mode, "--seconds", str(seconds),
           "--stream", str(stream), "--out", str(out), "--count", str(count)]
    subprocess.run(cmd, check=True)
    with open(f"{out}.lat") as f:
        elapsed_us = float(f.readline().split()[1])
        rows = [tuple(float(x) for x in line.split()) for line in f]
    return elapsed_us / 1e6, rows, dict(read_stream(f"{out}.resp"))


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def gmean(values):
    return math.exp(sum(math.log(x) for x in values) / len(values))


def response_gops(text):
    first = text.split("\n", 2)
    key = "weighted_gops=" if first[1].startswith("fleet ") else "throughput_gops="
    pos = text.index(key) + len(key)
    return float(text[pos:].split()[0])


def check(harness, stream_path, resp_path, texts, responses, reference=None):
    """Failed stream indices: model checks on every distinct response, plus
    byte identity of every repeat (and against `reference` text->response)."""
    proc = subprocess.run([str(harness), "check", "--stream", str(stream_path),
                           "--responses", str(resp_path)],
                          check=True, capture_output=True, text=True)
    bad_texts = set()
    for line in proc.stdout.splitlines():
        if line.startswith("fail "):
            log("perfbench: check " + line)
            bad_texts.add(texts[int(line.split()[1])])
    first = dict(reference or {})
    failed = set()
    for i, resp in sorted(responses.items()):
        text = texts[i]
        if text in bad_texts or first.setdefault(text, resp) != resp:
            failed.add(i)
    summary = proc.stdout.splitlines()[-1].split()
    return failed, int(summary[5])


def startup_times(exe, workload, work):
    times, fleet = [], None
    for k in range(STARTUPS):
        t0 = time.perf_counter()
        fleet = Fleet(exe, workload, work)
        times.append(time.perf_counter() - t0)
        if k + 1 < STARTUPS:
            fleet.stop()
    return times, fleet


def prefill(harness, fleet, hot, work):
    path = work / "hot.txt"
    gen.write_stream(path, [(0, 0, t) for t in hot])
    t0 = time.perf_counter()
    _, _, resp = run_client(harness, fleet, path, work / "hot", mode="closed",
                            seconds=600)
    return time.perf_counter() - t0, {hot[i]: r for i, r in resp.items()}


def make_stream(workload, seed, seconds, work):
    """Stream file + its texts; open-loop workloads also return the hot set."""
    hot = []
    if workload == "serve_mix":
        hot, schedule = gen.serve_mix(seed, seconds, SERVE_RATE, SERVE_CONNS)
    elif workload == "cold_deploy":
        schedule = [(0, 0, t) for t in gen.deploy_stream(seed, int(seconds * 8) + 8)]
    else:
        # Distinct seeds for the two cold streams: sharded_cold must not be a
        # replay of cold_synth's requests. The stream is long enough for
        # several times today's rate; a closed loop that outruns it ends early.
        s = seed if workload == "cold_synth" else seed + 1_000_003
        schedule = [(0, 0, t) for t in gen.cold_stream(s, int(seconds * 60) + 60)]
    path = work / "stream.txt"
    gen.write_stream(path, schedule)
    return path, [t for _, _, t in schedule], hot


def measure(exe, harness, args, work):
    wl = args.workload
    stream, texts, hot = make_stream(wl, args.seed, args.seconds, work)
    times, fleet = startup_times(exe, wl, work)
    diag = {"startup_ms": [round(t * 1e3, 3) for t in times]}
    try:
        warm_s, reference = 0.0, {}
        if hot:
            warm_s, reference = prefill(harness, fleet, hot, work)
        cpu0 = fleet.cpu_ticks()
        open_loop = wl == "serve_mix"
        elapsed, rows, responses = run_client(
            harness, fleet, stream, work / "run",
            mode="open" if open_loop else "closed", seconds=args.seconds,
            conns=SERVE_CONNS if open_loop else 1)
        cpu1 = fleet.cpu_ticks()
        rss = fleet.peak_rss_mb()
    finally:
        fleet.stop()
    lat = [(done - due) / 1e3 for _, due, _, done in rows]
    lateness = sorted((send - due) / 1e3 for _, due, send, _ in rows)
    failed, simulated = check(harness, stream, work / "run.resp", texts,
                              responses, reference)
    distinct = {texts[i]: r for i, r in responses.items() if i not in failed}
    tail_v, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(times) + warm_s, "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_v, "ms"),
        "throughput_rps": (len(rows) / elapsed, "1/s"),
        "cpu_ms_per_req": ((cpu1 - cpu0) * 1000.0 / CLK_TCK / len(rows), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "design_gops": (gmean([response_gops(r) for r in distinct.values()])
                        if distinct else 1e-9, "GOPS"),
    }
    diag.update({"samples": n, "tail_percentile": round(tail_pct, 3),
                 "warmup_s": round(warm_s, 4), "measured_s": round(elapsed, 3),
                 "distinct_responses": len(distinct), "simulated": simulated,
                 "open_loop": open_loop})
    if open_loop:
        diag["lateness_ms"] = {"p50": statistics.median(lateness),
                               "p99": lateness[int(0.99 * (len(lateness) - 1))],
                               "max": lateness[-1]}
    return metrics, len(rows), len(failed), diag


def median_of(recs, key, scale=1.0):
    vals = [r[key] for r in recs if key in r]
    return statistics.median(vals) * scale if vals else 0.0


def parse_trace(stdout):
    """Harness records by kind: [{span or count name: value}]."""
    recs = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "rec":
            recs.setdefault(parts[1], []).append(
                {k: float(v) for k, v in (p.split("=") for p in parts[2:])})
    return recs


def ratio(num, den):
    return num / den if den else 0.0


# Spans directly under a traced request, per request kind; everything else a
# record holds is nested deeper (serve.format inside core.evaluate_models on
# the synthesis path, phases inside core.explore) or a count.
CHILD_SPANS = {
    "synth": ("serve.parse", "loopnest.nest", "serve.cache_lookup", "core.explore",
              "serve.cache_insert", "core.evaluate_models"),
    "deploy": ("serve.parse", "loopnest.nest", "serve.cache_lookup",
               "deploy.select_fleet", "deploy.evaluate_fleet", "serve.format"),
}
# Per-layer metrics whose request-level share of latency_p50_ms the traced
# run reports (share.layer_of_p50), per workload.
SHARE_LAYER = {"cold_synth": "core.explore_ms", "sharded_cold": "core.explore_ms",
               "cold_deploy": "core.unified_candidates_ms", "serve_mix": "hit path"}


def measure_trace(exe, harness, args, work):
    """Per-layer run: the daemon under a fixed-size stream for its counters,
    then the same requests in-process through each layer with spans."""
    wl = args.workload
    stream, texts, hot = make_stream(wl, args.seed, args.seconds, work)
    count = min(len(texts), max(4, int(round(TRACE_RATE[wl] * args.seconds))))
    open_loop = wl == "serve_mix"
    fleet = Fleet(exe, wl, work)
    try:
        reference = {}
        if hot:
            _, reference = prefill(harness, fleet, hot, work)
        before = fleet.counters()
        _, rows, responses = run_client(
            harness, fleet, stream, work / "run",
            mode="open" if open_loop else "closed",
            seconds=args.seconds if open_loop else 3600,
            conns=SERVE_CONNS if open_loop else 1, count=0 if open_loop else count)
        after = fleet.counters()
        # The first `count` requests again, now all cache hits, one at a time.
        _, replay_rows, replayed = run_client(harness, fleet, stream, work / "replay",
                                              mode="closed", seconds=3600, count=count)
    finally:
        fleet.stop()
    failed, _ = check(harness, stream, work / "run.resp", texts, responses, reference)
    first = {texts[i]: r for i, r in responses.items()}
    failed |= {i for i, r in replayed.items() if first.get(texts[i], r) != r}
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    client_p50_ms = statistics.median((done - due) / 1e3 for _, due, _, done in rows)
    replay_p50_us = statistics.median(done - due for _, due, _, done in replay_rows)

    cmd = [str(harness), "trace", "--stream", str(stream), "--count", str(count),
           "--shard", "1" if wl == "sharded_cold" else "0",
           "--probe-synth", gen.PROBE_SYNTH, "--probe-deploy", gen.PROBE_DEPLOY]
    if hot:
        cmd += ["--hot", str(work / "hot.txt")]
    env = dict(os.environ, **DAEMON_ENV)
    recs = parse_trace(subprocess.run(cmd, check=True, capture_output=True,
                                      text=True, env=env).stdout)
    synth, deploy = recs.get("synth", []), recs.get("deploy", [])
    kind = "deploy" if wl == "cold_deploy" else "synth"
    own = (deploy if kind == "deploy" else synth)[:count]
    handle = recs.get("handle", [])
    explored = [r for r in synth if "core.explore" in r]
    # The request-path layers: hits on serve_mix, the (cold) requests elsewhere.
    path = [r for r in own if r["hit"] == 1] if open_loop else own
    for r in own:
        r["self"] = r["request"] - sum(r.get(c, 0.0) for c in CHILD_SPANS[kind])
    for r in synth:
        r["core.models_self"] = r["core.evaluate_models"] - r["serve.format"]
    for r in explored:
        r["core.explore_self"] = r["core.explore"] - r["core.phase1"] - r["core.phase2"]
    for r in deploy:
        r["deploy.select_fleet_self"] = (r["deploy.select_fleet"] -
                                         r["deploy.candidate_sources"] *
                                         r["core.unified_candidates"])

    p1_wall = sum(r["core.phase1"] for r in explored)
    p1_cpu = sum(r["core.phase1_cpu"] for r in explored)
    work_items = sum(r["core.work_items"] for r in explored)
    shard_ms = [r["serve.shard_rpc"] / 1e3 for r in recs.get("shard", [])]
    hit_path_keys = ("serve.parse", "loopnest.nest", "serve.cache_lookup",
                     "core.evaluate_models")
    layer_ms = {
        "core.explore_ms": median_of(explored, "core.explore", 1e-3),
        "core.unified_candidates_ms": median_of(deploy, "core.unified_candidates", 1e-3),
        "hit path": sum(median_of(path, k) for k in hit_path_keys) * 1e-3,
    }
    sweep_probes = sum(delta.get(f"sweep_cache_{t}_total", 0) for t in
                       ("exact_hits", "exact_misses", "hint_hits", "hint_misses"))
    sweep_hits = (delta.get("sweep_cache_exact_hits_total", 0) +
                  delta.get("sweep_cache_hint_hits_total", 0))
    # Duplicates sent: requests sent while the same text was still awaiting
    # its answer on the client, the ones singleflight can coalesce.
    dup_sent, open_until = 0, {}
    for i, _, send, done in sorted(rows, key=lambda row: row[2]):
        text = texts[int(i)]
        dup_sent += open_until.get(text, -1.0) > send
        open_until[text] = max(open_until.get(text, -1.0), done)
    metrics = {
        "core.explore_ms": (layer_ms["core.explore_ms"], "ms"),
        "core.explore_self_ms": (median_of(explored, "core.explore_self", 1e-3), "ms"),
        "core.phase1_ms": (median_of(explored, "core.phase1", 1e-3), "ms"),
        "core.phase2_ms": (median_of(explored, "core.phase2", 1e-3), "ms"),
        "core.phase1_parallel_eff": (ratio(p1_cpu, sum(r["core.phase1"] * r["core.jobs"]
                                                      for r in explored)), "ratio"),
        "core.work_items": (work_items, "count"),
        "core.seed_evals": (sum(r["core.seed_evals"] for r in explored), "count"),
        "core.items_pruned_bound_ratio": (ratio(
            sum(r["core.items_pruned_bound"] for r in explored), work_items), "ratio"),
        "core.reuse_evaluated": (sum(r["core.reuse_evaluated"] for r in explored),
                                 "count"),
        "core.models_self_us": (median_of(path, "core.models_self"), "us"),
        "core.unified_candidates_ms": (layer_ms["core.unified_candidates_ms"], "ms"),
        "core.unified_pairs": (sum(r["core.unified_pairs"] for r in deploy), "count"),
        "core.unified_shortlist": (sum(r["core.unified_shortlist"] for r in deploy),
                                   "count"),
        "deploy.select_fleet_ms": (median_of(deploy, "deploy.select_fleet", 1e-3), "ms"),
        "deploy.select_fleet_self_ms": (median_of(deploy, "deploy.select_fleet_self",
                                                  1e-3), "ms"),
        "deploy.evaluate_fleet_ms": (median_of(deploy, "deploy.evaluate_fleet", 1e-3),
                                     "ms"),
        "deploy.fold_plans": (sum(r["deploy.fold_plans"] for r in deploy), "count"),
        "loopnest.nest_us": (median_of(path, "loopnest.nest"), "us"),
        "serve.parse_us": (median_of(path, "serve.parse"), "us"),
        "serve.cache_lookup_us": (median_of(path, "serve.cache_lookup"), "us"),
        "serve.format_us": (median_of(path, "serve.format"), "us"),
        "serve.request_self_us": (median_of(own, "self"), "us"),
        "serve.transport_us": (replay_p50_us - median_of(recs.get("handle_hit", []),
                                                         "serve.handle"), "us"),
        "serve.cache_hit_ratio": (ratio(delta.get("cache_hits_total", 0),
                                        delta.get("cache_probes_total", 0)), "ratio"),
        "serve.cache_hits": (delta.get("cache_hits_total", 0), "count"),
        "serve.coalesced_ratio": (ratio(delta.get("serve_coalesced_total", 0),
                                        dup_sent), "ratio"),
        "serve.queue_wait_ms": (ratio(delta.get("serve_queue_wait_ms.sum", 0),
                                      delta.get("serve_queue_wait_ms.count", 0)), "ms"),
        "util.pool_task_wait_ms": (ratio(delta.get("pool_task_wait_ms.sum", 0),
                                         delta.get("pool_task_wait_ms.count", 0)), "ms"),
        "serve.sweep_cache_hit_ratio": (ratio(sweep_hits, sweep_probes), "ratio"),
        "serve.sweep_cache_hits": (sweep_hits, "count"),
        "serve.shard_rpc_ms": (statistics.median(shard_ms), "ms"),
        "serve.shard_rpc_tail_ms": (tail(shard_ms)[0], "ms"),
        "serve.shard_degraded": (delta.get("shard_degraded_total", 0), "count"),
        "trace.overhead_pct": (100.0 * (statistics.median(
            r["request"] / h["serve.handle"] for r, h in zip(own, handle)) - 1.0), "%"),
        "share.layer_of_p50": (ratio(layer_ms[SHARE_LAYER[wl]], client_p50_ms), "ratio"),
    }
    diag = {"traced_requests": len(own), "daemon_requests": len(rows),
            "client_p50_ms": client_p50_ms, "replay_p50_us": replay_p50_us,
            "share_layer": SHARE_LAYER[wl], "shard_windows": len(shard_ms),
            "request_sha256": hashlib.sha256("".join(texts[:count]).encode()).hexdigest()}
    return metrics, len(rows) + len(replay_rows), len(failed), diag


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exe, harness = build()
    work = ROOT / ".bench_build" / "runs" / \
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before, steal_before = os.getloadavg(), steal_ticks()
    try:
        fn = measure_trace if args.trace else measure
        metrics, attempted, failed, diag = fn(exe, harness, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diag.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "nproc": os.cpu_count(), "loadavg_before": load_before,
                 "loadavg_after": os.getloadavg(),
                 "steal_s": (steal_ticks() - steal_before) / CLK_TCK})
    print("# diagnostics " + json.dumps(diag, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
