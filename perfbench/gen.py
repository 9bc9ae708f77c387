"""Seeded request generators for the perfbench workloads.

Every request the daemon sees is text produced here from the workload seed;
the same seed always yields the same streams, byte for byte.

Conv-layer streams are stratified: request slots cycle through a fixed list
of base layers taken from AlexNet, VGG-16 and GoogLeNet (a fresh seeded
order per cycle), and each slot draws an unused layer from its base's
neighbourhood (channel counts and output size moved a few steps). Every run
therefore carries the same mix of layer kinds, so its medians do not hinge on
which layers one seed happened to draw.
"""

import random

# (I, O, R=C, K, stride, groups) base layers. The 3-channel first layers
# (AlexNet conv1, GoogLeNet conv1) are left out: their DSE time swings 20x
# between neighbouring shapes (35 ms to 950 ms), so the handful a run draws
# would set its tail.
COLD_STRATA = [
    (48, 256, 27, 5, 1, 2),    # AlexNet conv2 (grouped)
    (256, 384, 13, 3, 1, 1),   # AlexNet conv3
    (192, 384, 13, 3, 1, 1),   # AlexNet conv4 (per group)
    (64, 128, 112, 3, 1, 1),   # VGG-16 conv2_1
    (128, 256, 56, 3, 1, 1),   # VGG-16 conv3_1
    (256, 512, 28, 3, 1, 1),   # VGG-16 conv4_1
    (512, 512, 14, 3, 1, 1),   # VGG-16 conv5_x
    (64, 192, 56, 3, 1, 1),    # GoogLeNet conv2
    (192, 64, 28, 1, 1, 1),    # inception 3a 1x1
    (96, 128, 28, 3, 1, 1),    # inception 3a 3x3
    (16, 32, 28, 5, 1, 1),     # inception 3a 5x5
    (480, 192, 14, 1, 1, 1),   # inception 4a 1x1
    (112, 224, 14, 3, 1, 1),   # inception 4b 3x3
    (256, 160, 14, 1, 1, 1),   # inception 4e 1x1
]

# The serve mix's layers, hot set and cold arrivals alike: the 1x1 kinds,
# whose DSE takes 5-11 ms at one thread. A cold arrival holds up the hits
# queued behind it on its connection, and the largest DSE sets the daemon's
# peak RSS; with a wide cost range both swung from run to run.
SERVE_STRATA = [layer for layer in COLD_STRATA if layer[3] == 1]

# Neighbour layers whose DSE winner, on the seed code, sits outside the
# model-vs-simulator band the benchmark checks (clip-heavy odd output sizes,
# mostly 1x1 layers). They are left out so that the workloads fail no
# operation; see README.md, "Checks". Found by running every neighbourhood
# layer through the daemon and `perfbench_harness check`.
OUT_OF_BAND = frozenset([
    (80, 224, 12, 3, 1, 1), (80, 272, 11, 3, 1, 1), (160, 416, 10, 3, 1, 1),
    (272, 384, 10, 3, 1, 1), (272, 400, 10, 3, 1, 1), (272, 416, 10, 3, 1, 1),
    (272, 432, 10, 3, 1, 1), (288, 400, 10, 3, 1, 1),
    (160, 80, 31, 1, 1, 1), (176, 80, 31, 1, 1, 1), (192, 80, 31, 1, 1, 1),
    (208, 80, 31, 1, 1, 1), (272, 192, 17, 1, 1, 1), (288, 192, 17, 1, 1, 1),
    (448, 192, 17, 1, 1, 1), (464, 192, 17, 1, 1, 1), (480, 192, 17, 1, 1, 1),
    (496, 192, 17, 1, 1, 1), (512, 192, 17, 1, 1, 1),
])

# Held fixed: a request's answer never depends on it, only its DSE threads.
COLD_JOBS = 3
SERVE_JOBS = 1
DEPLOY_JOBS = 3
SIBLING_EVERY = 4  # every 4th cold slot is an H/W sibling of an earlier layer

# Single-network AlexNet deploys, made cheap (~0.5 s at 3 jobs) by a tight
# BRAM budget. Each assumed clock is a distinct request; below 280 MHz the
# fleet the seed code picks folds conv2 outside the checked band.
DEPLOY_BRAM = 0.04
DEPLOY_FREQS = range(280, 381)

PROBE_SYNTH = "sasynth-request v1\nlayer 192,64,28,28,1\noption jobs 2\nend\n"
PROBE_DEPLOY = ("sasynth-deploy v1\nnetwork tiny\ndevice tiny\n"
                "option jobs 2\nend\n")


def synth_text(layer, jobs):
    i, o, rc, k, stride, groups = layer
    return (f"sasynth-request v1\nlayer {i},{o},{rc},{rc},{k},{stride},{groups}\n"
            f"option jobs {jobs}\nend\n")


def _step(n):
    return 16 if n >= 64 else (8 if n >= 16 else 1)


def neighbourhood(base):
    """The layers a stratum draws from: input maps within two steps of the
    base, output maps up to three steps above it, and output size within
    three of it."""
    i, o, rc, k, stride, groups = base
    ins = [i + _step(i) * d for d in range(-2, 3) if i + _step(i) * d > 0]
    outs = [o + _step(o) * d for d in range(4)]
    rcs = [rc + d for d in range(-3, 4)]
    return [layer for layer in ((a, b, r, k, stride, groups)
                                for a in ins for b in outs for r in rcs)
            if layer not in OUT_OF_BAND]


def _stratified(rng, strata, n, used, siblings):
    """Up to n distinct unused layers cycling through `strata` in seeded
    per-cycle order; a stratum whose neighbourhood is used up drops out."""
    pools = [neighbourhood(s) for s in strata]
    out, last, order = [], {}, []
    live = list(range(len(strata)))
    while len(out) < n and live:
        if not order:
            order = list(live)
            rng.shuffle(order)
        s = order.pop()
        free = [layer for layer in pools[s] if layer not in used]
        if not free:
            live.remove(s)
            continue
        if siblings and len(out) % SIBLING_EVERY == SIBLING_EVERY - 1 and s in last:
            same_maps = [layer for layer in free if layer[:2] == last[s][:2]]
            free = same_maps or free
        layer = rng.choice(free)
        used.add(layer)
        last[s] = layer
        out.append(layer)
    return out


def cold_stream(seed, n):
    """Up to n distinct cold synthesis requests (cold_synth, sharded_cold)."""
    rng = random.Random(f"cold:{seed}")
    layers = _stratified(rng, COLD_STRATA, n, set(), siblings=True)
    return [synth_text(layer, COLD_JOBS) for layer in layers]


def deploy_stream(seed, n):
    """Up to n distinct single-network AlexNet deploy requests."""
    rng = random.Random(f"deploy:{seed}")
    freqs = rng.sample(DEPLOY_FREQS, k=min(n, len(DEPLOY_FREQS)))
    return [f"sasynth-deploy v1\nnetwork alexnet\noption jobs {DEPLOY_JOBS}\n"
            f"option max_bram_util {DEPLOY_BRAM}\noption freq {freq}\nend\n"
            for freq in freqs]


def serve_mix(seed, seconds, rate, conns, hot_size=32, cold_every=100,
              burst_every=3, burst=3, zipf_s=1.1):
    """Hot set plus an open-loop schedule [(conn, due_us, text)].

    Arrivals are Poisson at `rate`. Every `cold_every`-th arrival is a new
    layer, and every `burst_every`-th of those arrives as `burst` simultaneous
    duplicates on different connections (singleflight coalescing); the rest
    pick hot keys by a Zipf law over a seeded ranking. Cold arrivals come at
    a fixed share rather than by chance, so every run holds the same number.
    """
    rng = random.Random(f"serve:{seed}")
    used = set()
    hot = [synth_text(layer, SERVE_JOBS)
           for layer in _stratified(rng, SERVE_STRATA, hot_size, used, False)]
    weights = [1.0 / (r + 1) ** zipf_s for r in range(hot_size)]
    schedule = []
    t = 0.0
    conn = 0
    arrivals = 0
    colds = 0
    horizon = seconds * 1e6
    while True:
        t += rng.expovariate(rate) * 1e6
        if t >= horizon:
            break
        arrivals += 1
        if arrivals % cold_every == 0:
            colds += 1
            text = synth_text(_stratified(rng, SERVE_STRATA, 1, used, False)[0],
                              SERVE_JOBS)
            copies = burst if colds % burst_every == 0 else 1
            for c in range(copies):
                schedule.append(((conn + c) % conns, int(t), text))
            conn = (conn + copies) % conns
        else:
            text = rng.choices(hot, weights=weights)[0]
            schedule.append((conn, int(t), text))
            conn = (conn + 1) % conns
    return hot, schedule


def write_stream(path, entries):
    """entries: iterable of (conn, due_us, text)."""
    with open(path, "w") as f:
        for conn, due, text in entries:
            f.write(f"@ {conn} {due}\n{text}")
