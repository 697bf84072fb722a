"""Compare two result sets (JSON-lines files written with `run.py --out`).

    python3 perfbench/run.py compare parent.jsonl change.jsonl

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the ratio of medians, and a verdict:

- "better" / "worse": the change wins (or loses) at least nine tenths of the
  pairs, runs paired by seed, ties counting for neither, and the medians
  differ by more than the parent's interquartile spread;
- "regression": the change's median is worse than the parent's by more
  than the metric's bound, without meeting the rule above;
- "unresolved": the parent's own spread exceeds the bound, unless every run
  of the change reads better (or worse) than every run of the parent;
- "same": none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from . import common


def _load(path) -> dict:
    """(workload, metric) -> {seed: value}. Keep traced and untraced runs
    in separate files: comparing one with the other gives the tracing
    overhead."""
    out: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            result = json.loads(line)
            seed = result["provenance"]["seed"]
            for name, (value, _unit) in result["metrics"].items():
                out[(result["provenance"]["workload"], name)][seed] = value
    return out


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    a, b = list(parent.values()), list(change.values())
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    iqr = qa[2] - qa[0]
    gap = sign * (mb - ma)
    if all(sign * (y - x) > 0 for x in a for y in b):
        word = "better"
    elif all(sign * (y - x) < 0 for x in a for y in b):
        word = "worse"
    elif iqr / abs(ma) > bound:
        word = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and gap > iqr:
        word = "better"
    elif pairs and losses >= 0.9 * len(pairs) and -gap > iqr:
        word = "worse"
    elif -gap / abs(ma) > bound:
        word = "regression"
    else:
        word = "same"
    return {"parent_median": ma, "parent_q": (qa[0], qa[2]),
            "change_median": mb, "change_q": (qb[0], qb[2]),
            "ratio": mb / ma, "pairs": len(pairs), "wins": wins,
            "verdict": word}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    declared = common.declared()
    parent, change = _load(argv[0]), _load(argv[1])
    print("workload     metric             parent median [q1, q3]"
          "          change median [q1, q3]    ratio  wins  verdict")
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        for m in declared["end_to_end"]:
            key = (workload, m["name"])
            if len(parent.get(key, {})) < 2 or len(change.get(key, {})) < 2:
                continue
            v = verdict(parent[key], change[key], m["better"], m["bound"])
            side = "{:10.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:12s} {m['name']:18s} "
                  f"{side.format(v['parent_median'], *v['parent_q']):32s}"
                  f"{side.format(v['change_median'], *v['change_q']):32s}"
                  f"{v['ratio']:6.3f} {v['wins']:2d}/{v['pairs']:<2d} "
                  f"{v['verdict']}")
    return 0
