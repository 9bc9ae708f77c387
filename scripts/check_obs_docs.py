#!/usr/bin/env python3
"""Doc-drift gate: the documented metrics and spans are exactly the code's.

Scans the C++ sources under src/ and collects

  1. every metric name registered through `counter("...")`, `gauge("...")`
     or `histogram("...")` (a name built with strformat counts with each
     printf conversion written as `<i>`, e.g. `shard_peer_state_p<i>`);
  2. every span name an `obs::ScopedSpan` is constructed with.

It fails when a name has no backticked entry (`name`) anywhere in
docs/OBSERVABILITY.md, and when a name in the first column of a table under
its "Metric reference" or "Span taxonomy" heading is registered nowhere. A
documented name may end in `*` to stand for a family: `bench.*` resolves
against the span names the bench binaries under bench/ time.

Usage: scripts/check_obs_docs.py [root]
"""

import fnmatch
import re
import sys
from pathlib import Path

# The first string literal a registry call names, optionally through
# strformat(...); \s* spans the newline some call sites break before it.
METRIC_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\(\s*(?:strformat\(\s*)?\"([^\"]+)\""
)
SPAN_RE = re.compile(r"\bScopedSpan\s+\w+\(\s*\"([^\"]+)\"")
# bench/ names its spans through bench::timed_ms("...") as well.
BENCH_SPAN_RE = re.compile(r"\b(?:ScopedSpan\s+\w+|timed_ms)\(\s*\"([^\"]+)\"")
PRINTF_CONVERSION_RE = re.compile(r"%[-+ #0-9.]*[a-zA-Z]+")
REFERENCE_SECTIONS = ("## Metric reference", "## Span taxonomy")


def sources(directory: Path):
    for path in sorted(directory.rglob("*")):
        if path.suffix in (".h", ".cpp"):
            yield path.read_text(encoding="utf-8")


def collect(root: Path):
    metrics, spans = set(), set()
    for text in sources(root / "src"):
        for name in METRIC_RE.findall(text):
            metrics.add(PRINTF_CONVERSION_RE.sub("<i>", name))
        spans.update(SPAN_RE.findall(text))
    return metrics, spans


def table_names(doc_text: str):
    """Backticked names in the first column of the reference tables."""
    names, in_reference = set(), False
    for line in doc_text.splitlines():
        if line.startswith("## "):
            in_reference = line.startswith(REFERENCE_SECTIONS)
        elif in_reference and line.startswith("|"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    doc_path = root / "docs" / "OBSERVABILITY.md"
    doc_text = doc_path.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([^`]+)`", doc_text))
    metrics, spans = collect(root)
    if not metrics or not spans:
        print(f"found {len(metrics)} metric(s) and {len(spans)} span(s) under "
              f"{root / 'src'}; the scan patterns no longer match the code")
        return 1

    errors = [f"metric `{name}` is registered under src/ but not documented"
              for name in sorted(metrics - documented)]
    errors += [f"span `{name}` is recorded under src/ but not documented"
               for name in sorted(spans - documented)]
    registered = metrics | spans
    for text in sources(root / "bench"):
        registered.update(BENCH_SPAN_RE.findall(text))
    errors += [f"`{name}` is documented but registered nowhere in the code"
               for name in sorted(table_names(doc_text))
               if not fnmatch.filter(registered, name)]
    if errors:
        print(f"{len(errors)} observability documentation drift error(s) "
              f"in {doc_path.relative_to(root)}:")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"{len(metrics)} metrics and {len(spans)} spans documented in "
          f"{doc_path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
