"""``sweep-warm``: the batch command over a warm disk cache.

One pass is a fresh ``python -m repro run-all --profile bench --jobs 1``
process over the experiments that share the Figure 11 comparison matrix
(all six graph stand-ins, PageRank/BFS/SSSP on GaaS-X and GraphR, and
the CPU/GPU/GRAM models priced from the same runs). Set-up is the cold
run of the same command into an empty cache, which synthesizes and
partitions every stand-in; its outputs are the reference every warm
pass must reproduce byte for byte.

The dataset stand-ins keep their fixed seeds (changing them changes the
figures), so this workload ignores ``--seed``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from common import (counter_hit_rate, dir_mb, layer_metrics, median,
                    repro_env, reuse_metrics, run_child, sha256_files)
from layers import merge_summaries

#: Every experiment priced from the shared comparison matrix, plus the
#: device table. The full 24-experiment sweep takes ~78 s cold and
#: ~28 s warm on a 2-core host, too long to repeat within one run.
EXPERIMENTS = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
               "gapbs", "table1")

#: Paper geomeans the reproduction is compared against (Section V).
PAPER_GEOMEANS = {"fig11": 7.7, "fig12": 22.0}


def _argv(out: Path) -> List[str]:
    argv = ["run-all", "--profile", "bench", "--jobs", "1", "--out", str(out)]
    for experiment in EXPERIMENTS:
        argv += ["--only", experiment]
    return argv


def _outputs(out: Path) -> List[Path]:
    return [out / f"{experiment}.json" for experiment in EXPERIMENTS]


def _same_outputs(run: Path, reference: Path) -> bool:
    """Stdout and every per-experiment report equal the reference's."""
    pairs = [(run / "stdout.txt", reference / "stdout.txt")]
    pairs += zip(_outputs(run), _outputs(reference))
    return all(a.is_file() and a.read_bytes() == b.read_bytes()
               for a, b in pairs)


def _geomeans(stdout: str) -> Dict[str, float]:
    """Fig 11/12 geomeans as printed in the reports."""
    found = {}
    for experiment in PAPER_GEOMEANS:
        match = re.search(
            rf"== {experiment}:.*?geomean \(paper [^)]*\):\s*([0-9.]+)x",
            stdout, re.S,
        )
        if match:
            found[experiment] = float(match.group(1))
    return found


def _pass(work: Path, name: str, traced: bool = False
          ) -> Tuple[int, float, float, Path]:
    """One ``run-all`` process; returns (exit code, wall, rss, out dir)."""
    out = work / name
    out.mkdir()
    prefix = [sys.executable]
    if traced:
        prefix += [str(Path(__file__).with_name("traced_cli.py")),
                   str(out / "trace.json"), "--"]
    else:
        prefix += ["-m", "repro"]
    code, wall, rss = run_child(prefix + _argv(out), repro_env(work),
                                out / "stdout.txt", out / "stderr.txt")
    if code != 0:
        sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
    return code, wall, rss, out


def _info(cold: Path, cold_wall: float, disk: float) -> Dict:
    stdout = (cold / "stdout.txt").read_text()
    geomeans = _geomeans(stdout)
    info = {
        "experiments": list(EXPERIMENTS),
        "cold_wall_s": round(cold_wall, 3),
        "disk_mb": round(disk, 1),
        "stdout_sha256": sha256_files([cold / "stdout.txt"]),
        "reports_sha256": sha256_files(_outputs(cold)),
    }
    for experiment, value in geomeans.items():
        paper = PAPER_GEOMEANS[experiment]
        info[f"{experiment}_geomean"] = (
            f"{value:.2f}x (paper {paper:g}x, error {value / paper - 1:+.1%})"
        )
    return info


def run(seed: int, seconds: float, trace: bool, work: Path):
    del seed  # fixed dataset seeds; see the module docstring
    code, cold_wall, _rss, cold = _pass(work, "cold", traced=trace)
    if code != 0:
        raise RuntimeError("cold run-all failed")
    disk = dir_mb(work / "cache", work / "store")
    info = _info(cold, cold_wall, disk)
    if trace:
        return _traced(work, cold, disk, info)
    attempted = failed = 0
    walls, rsss = [], []
    while sum(walls) < seconds:
        code, wall, rss, out = _pass(work, f"warm{len(walls)}")
        attempted += 1
        failed += int(code != 0 or not _same_outputs(out, cold))
        walls.append(wall)
        rsss.append(rss)
    info["warm_walls_s"] = [round(w, 3) for w in walls]
    metrics = {
        "setup_s": cold_wall,
        "wall_s": median(walls),
        "op_p50_ms": 1000.0 * median(walls),
        "throughput_per_s": len(EXPERIMENTS) / median(walls),
        "peak_rss_mb": median(rsss),
    }
    return metrics, attempted, failed, info


def _traced(work: Path, cold: Path, disk: float, info: Dict):
    """The cold set-up was traced; add one untraced and one traced warm
    pass. The overhead is the traced minus the untraced warm wall."""
    attempted = failed = 0
    walls = {}
    for name, traced in (("warm-plain", False), ("warm-traced", True)):
        code, walls[name], _rss, out = _pass(work, name, traced=traced)
        attempted += 1
        failed += int(code != 0 or not _same_outputs(out, cold))
    parts = [json.loads((work / d / "trace.json").read_text())
             for d in ("cold", "warm-traced")]
    summary = merge_summaries(parts)
    cache: Dict[str, float] = {}
    for part in parts:
        for key, value in part["cache"].items():
            cache[key] = cache.get(key, 0) + value
    reuse = {k: sum(part["reuse"][k] for part in parts)
             for k in parts[0]["reuse"]}
    extra = reuse_metrics({}, reuse)
    extra["core.cache.hit_rate"] = counter_hit_rate(cache)
    extra["core.cache.disk_mb"] = disk
    metrics = layer_metrics(summary, extra,
                            walls["warm-traced"] - walls["warm-plain"])
    info["missing_targets"] = summary["missing"]
    return metrics, attempted, failed, info
