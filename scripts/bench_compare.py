#!/usr/bin/env python3
"""Perf trajectory: record perfbench runs and gate the newest change on them.

BENCH_perfbench.json (repository root) holds one entry per perfbench run:

  {"pr": <N>, "side": "parent" | "head", "workload": "cold_synth", "seed": 1,
   "commit": "<git hash measured>", "result": {<perfbench result line>},
   "diagnostics": {<perfbench "# diagnostics" object>}}

A perf change runs its parent and its head back to back, alternating, and
records both sides under its own number. The head is measured before it is
committed, so its `commit` reads `<parent hash>+pr<N>`: the parent with the
change applied, i.e. the commit that adds the entries.

  scripts/bench_compare.py record --pr N --side head --commit HASH OUT...
      appends one entry per OUT, a file holding a perfbench run's stdout
      (its last two lines are the diagnostics and the result).

  scripts/bench_compare.py [--root DIR]
      takes the entries of the newest pr, and for each (workload, seed)
      compares the median of every BENCHMARK.json end-to-end metric per
      side against that metric's relative bound. It exits 1 when a head
      median is worse than the parent's by more than the bound, when a
      head run failed a request, or when a (workload, seed) lacks a side.

It reads the committed files only; it never runs the benchmark.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = "BENCH_perfbench.json"
SIDES = ("parent", "head")


def load_trajectory(path: Path):
    if not path.exists():
        return {"entries": []}
    return json.loads(path.read_text(encoding="utf-8"))


def parse_run(text: str):
    """The diagnostics object and the result object of one run's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[-2].startswith("# diagnostics "):
        raise ValueError("not a perfbench run: no '# diagnostics' line "
                         "before the result line")
    diagnostics = json.loads(lines[-2][len("# diagnostics "):])
    result = json.loads(lines[-1])
    return diagnostics, result


def record(args) -> int:
    path = Path(args.root) / TRAJECTORY
    doc = load_trajectory(path)
    for out in args.outputs:
        diagnostics, result = parse_run(Path(out).read_text(encoding="utf-8"))
        doc["entries"].append({
            "pr": args.pr, "side": args.side,
            "workload": diagnostics["workload"], "seed": diagnostics["seed"],
            "commit": args.commit, "result": result,
            "diagnostics": diagnostics,
        })
    # One entry per line, so that a change's appended runs read as a diff.
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in doc["entries"])
    path.write_text('{"entries": [\n' + lines + "\n]}\n", encoding="utf-8")
    return 0


def worse_by(parent: float, head: float, better: str) -> float:
    """Relative change of head against parent, positive when worse."""
    if parent == 0:
        return 0.0 if head == parent else float("inf")
    change = (head - parent) / abs(parent)
    return change if better == "lower" else -change


def compare(args) -> int:
    root = Path(args.root)
    metrics = json.loads(
        (root / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    entries = load_trajectory(root / TRAJECTORY)["entries"]
    if not entries:
        print(f"{TRAJECTORY}: no entries", file=sys.stderr)
        return 1
    pr = max(e["pr"] for e in entries)
    runs = {}
    for e in entries:
        if e["pr"] == pr:
            runs.setdefault((e["workload"], e["seed"]), {}).setdefault(
                e["side"], []).append(e)

    problems = []
    print(f"pr {pr}: median of parent vs head runs, relative change "
          f"(+ = worse), bound from BENCHMARK.json")
    for (workload, seed), sides in sorted(runs.items()):
        counts = ", ".join(f"{s} {len(sides.get(s, []))}" for s in SIDES)
        print(f"\n{workload} seed {seed} ({counts} runs)")
        for e in sides.get("head", []):
            if e["result"].get("failed", 0) > 0:
                problems.append(f"{workload} seed {seed}: head run of "
                                f"{e['commit'][:12]} failed "
                                f"{e['result']['failed']} requests")
        if any(s not in sides for s in SIDES):
            problems.append(f"{workload} seed {seed}: missing a side")
            continue
        print(f"  {'metric':16} {'parent':>12} {'head':>12} {'change':>8}")
        for m in metrics:
            name = m["name"]
            med = {s: statistics.median(
                e["result"]["metrics"][name]["value"] for e in sides[s])
                for s in SIDES}
            change = worse_by(med["parent"], med["head"], m["better"])
            verdict = "REGRESSION" if change > m["bound"] else "ok"
            if verdict != "ok":
                problems.append(f"{workload} seed {seed}: {name} worse by "
                                f"{change:+.1%} (bound {m['bound']:.0%})")
            print(f"  {name:16} {med['parent']:12.4g} {med['head']:12.4g} "
                  f"{change:+8.1%}  bound {m['bound']:.0%}  {verdict}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    sub = ap.add_subparsers(dest="command")
    rec = sub.add_parser("record", help="append perfbench runs")
    rec.add_argument("--pr", type=int, required=True)
    rec.add_argument("--side", choices=SIDES, required=True)
    rec.add_argument("--commit", required=True)
    rec.add_argument("outputs", nargs="+")
    args = ap.parse_args()
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
