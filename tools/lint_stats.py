#!/usr/bin/env python3
"""Stats-convention lint for the emlio source tree.

One check, enforcing the counter convention documented in src/obs/metrics.h:
every atomic access in src/ (.load / .store / .fetch_add / .fetch_sub /
.fetch_or / .exchange / .compare_exchange_*) must pass an explicit
std::memory_order argument. Stats counters are independent relaxed atomics by
convention; an ordering-free call silently defaults to seq_cst, which both
hides the author's intent and puts a full fence on a hot path. The check also
covers the loads the metric-list expanders generate.

Serializer drift needs no lint: each stats struct's fields, its JSON keys and
its tsdb gauge names all expand from one metric list (src/obs/metrics.h), and
tests/test_trace.cpp pins the two hand-written serializers, to_json(BatchTrace)
and to_json(LatencyHistogram::Snapshot), by binding every field.

Usage: tools/lint_stats.py [repo_root]     (exit 0 clean, 1 findings)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ATOMIC_CALL = re.compile(
    r"\.(load|store|fetch_add|fetch_sub|fetch_or|fetch_and|exchange|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)


def check_orderings(sources: list[Path]) -> list[str]:
    findings = []
    for path in sources:
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = raw.split("//")[0]
            for m in ATOMIC_CALL.finditer(line):
                # The ordering argument may be spelled std::memory_order_* or
                # memory_order::*; look in the rest of the statement.
                tail = line[m.end() :]
                if "memory_order" not in tail:
                    findings.append(
                        f"{path}:{lineno}: atomic .{m.group(1)}() without explicit "
                        f"memory_order (stats counters are relaxed by convention)"
                    )
    return findings


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    sources = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cpp"))
    if not sources:
        print(f"lint_stats: no sources under {src}", file=sys.stderr)
        return 2
    findings = check_orderings(sources)
    for f in findings:
        print(f)
    print(f"lint_stats: {len(sources)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
