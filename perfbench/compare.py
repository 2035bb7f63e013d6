"""Per-workload, per-metric deltas between two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per run,
timed (``--trace 0``) and traced (``--trace 1``) alike. For every
workload and metric the script prints both medians over the runs, the
change as a share of the base median, and the base runs' spread
(quartile distance over median). End-to-end rows whose change is worse
than the bound in ``BENCHMARK.json`` are marked ``REGRESSED``; per-layer
rows list the layer times first, by how many seconds they moved, so a
regression is traced to the layer that moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[Tuple[str, int], Dict[str, List[float]]]


def load(path: str) -> Runs:
    """(workload, trace) -> metric -> values over the file's runs."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            for name, metric in record["result"]["metrics"].items():
                runs[key][name].append(float(metric["value"]))
    return runs


def spread(values: List[float]) -> float:
    """Quartile distance over median (0 with fewer than two runs)."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def declared() -> Dict[str, Dict]:
    """End-to-end and per-layer metric declarations by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base: Runs, new: Runs, spec: Dict[str, Dict]) -> List[str]:
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        kind = "per-layer" if trace else "end-to-end"
        lines.append(f"== {workload} ({kind}; runs: base "
                     f"{len(next(iter(base[key].values())))}, new "
                     f"{len(next(iter(new[key].values())))})")
        rows = []
        for name in sorted(set(base[key]) & set(new[key])):
            old = statistics.median(base[key][name])
            cur = statistics.median(new[key][name])
            change = (cur - old) / abs(old) if old else 0.0
            meta = spec.get(name, {})
            lower = meta.get("better", "lower") == "lower"
            worse = change if lower else -change
            flag = ""
            if "bound" in meta and worse > meta["bound"]:
                flag = "REGRESSED"
            rows.append((abs(cur - old), name, old, cur, change,
                         spread(base[key][name]), meta.get("unit", ""), flag))
        if trace:  # seconds first, largest move first
            rows.sort(key=lambda row: (row[6] != "s", -row[0]))
        lines.append(f"{'metric':40} {'base':>14} {'new':>14} {'change':>8} "
                     f"{'base spread':>11}")
        for _moved, name, old, cur, change, noise, unit, flag in rows:
            lines.append(f"{name:40} {old:14.6g} {cur:14.6g} {change:+8.1%} "
                         f"{noise:11.1%} {unit} {flag}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines = compare(load(args.base), load(args.new), declared())
    print("\n".join(lines))
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
