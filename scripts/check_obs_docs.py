#!/usr/bin/env python3
"""Doc-drift gate: every metric and span the code registers must be documented.

Scans the C++ sources under src/ and collects

  1. every metric name registered through `counter("...")`, `gauge("...")`
     or `histogram("...")` (a name built with strformat counts with each
     printf conversion written as `<i>`, e.g. `shard_peer_state_p<i>`);
  2. every span name an `obs::ScopedSpan` is constructed with.

It fails when a name has no backticked entry (`name`) anywhere in
docs/OBSERVABILITY.md.

Usage: scripts/check_obs_docs.py [root]
"""

import re
import sys
from pathlib import Path

# The first string literal a registry call names, optionally through
# strformat(...); \s* spans the newline some call sites break before it.
METRIC_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\(\s*(?:strformat\(\s*)?\"([^\"]+)\""
)
SPAN_RE = re.compile(r"\bScopedSpan\s+\w+\(\s*\"([^\"]+)\"")
PRINTF_CONVERSION_RE = re.compile(r"%[-+ #0-9.]*[a-zA-Z]+")


def collect(root: Path):
    metrics, spans = set(), set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        text = path.read_text(encoding="utf-8")
        for name in METRIC_RE.findall(text):
            metrics.add(PRINTF_CONVERSION_RE.sub("<i>", name))
        spans.update(SPAN_RE.findall(text))
    return metrics, spans


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
