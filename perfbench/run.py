"""Benchmark entry point: run one workload for a fixed time and report.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see NOTES.md for why):
chain_n7_long, run_n3_std, campaign_n8_mscan.

Every repetition of the workload runs in its own fresh process
(``worker.py``) with BLAS pinned to one thread. Repetitions run back to
back, one at a time (a closed loop with one caller), until the next one
would end after ``--seconds``; at least two run.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``wall_s_at_ref``, ``sweeps_per_s_at_ref``, ``setup_s`` and
``peak_rss_mb``. Repetition 1 repeats repetition 0's stream and must
reproduce its determinism digest; later repetitions take new streams.

All three times are rescaled to a reference machine speed: the
measured time is multiplied by CALIBRATION_REF_S over the time a fixed
calibration kernel took in the same process, right after set-up (for
``setup_s``) or around the entry call (for the ``_at_ref`` metrics). On
a shared virtual machine the speed of one vCPU drifts by tens of percent
within seconds; the rescaling removes most of that drift. The unscaled
wall-time medians are printed too, and every raw time is kept in the
record.

``--trace 1`` runs pairs of one untraced and one traced repetition on the
same stream, and reports the per-layer metrics as medians over pairs,
plus ``trace.overhead_s`` (traced minus untraced wall time). The two
digests of a pair must agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(every repetition, digests, provenance) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("chain_n7_long", "run_n3_std", "campaign_n8_mscan")
SETUP_PROBES = 8
# seconds the calibration kernel takes at the reference speed
CALIBRATION_REF_S = 0.1
# A run must end within 180 s; no repetition starts that could end past this.
LAST_START_S = 150.0
HARD_LIMIT_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="shiftsse benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (N = 2-3, a few hundred sweeps)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Runner:
    """Starts worker processes one at a time and keeps the run's clock."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.start = time.perf_counter()
        self.env = dict(os.environ, **PINNED_ENV)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, stream: int, *, trace: bool = False, setup_only: bool = False) -> dict:
        """One repetition; a crash or timeout becomes {"error": ...}."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--stream", str(stream)]
        cmd += ["--trace"] * trace + ["--tiny"] * self.args.tiny
        cmd += ["--setup-only"] * setup_only
        began = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            rep = {"error": "repetition timed out"}
        except (IndexError, json.JSONDecodeError):
            rep = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        rep.update(stream=stream, process_s=time.perf_counter() - began)
        return rep

    def room_for(self, durations: list[float]) -> bool:
        """Whether one more repetition of the typical length ends in time."""
        end = self.elapsed() + statistics.median(durations)
        return end <= min(self.args.seconds, LAST_START_S)


def tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations; a repetition that crashed counts one of each."""
    attempted = sum(rep.get("operations", 1) for rep in reps)
    failed = sum(1 if "error" in rep else rep["failed"] for rep in reps)
    return attempted, failed


def digest_mismatch(a: dict, b: dict) -> bool:
    """Both repetitions produced a digest and the two differ (a repetition
    without one has already failed)."""
    return None not in (a.get("digest"), b.get("digest")) and a["digest"] != b["digest"]


def at_ref(seconds: float, calibration_s: float) -> float:
    """A time measured next to a calibration kernel that took calibration_s,
    rescaled to the reference machine speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


def measure_plain(runner: Runner) -> tuple[list[dict], int, dict]:
    reps = []
    while True:
        reps.append(runner.spawn(stream=max(0, len(reps) - 1)))
        if len(reps) >= 2 and not runner.room_for([r["process_s"] for r in reps]):
            break
    mismatches = int(digest_mismatch(reps[0], reps[1]))
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        return reps, mismatches, {}
    probes = [runner.spawn(0, setup_only=True) for _ in range(SETUP_PROBES)]
    setups = [at_ref(r["setup_s"], r["setup_calibration_s"])
              for r in reps + probes if "setup_calibration_s" in r]
    walls = [at_ref(r["wall_s"], r["calibration_s"]) for r in timed]
    metrics = {
        "wall_s_at_ref": (statistics.median(walls), "s"),
        "sweeps_per_s_at_ref": (
            statistics.median(r["sweeps"] / w for r, w in zip(timed, walls)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
    }
    return reps, mismatches, metrics


def measure_traced(runner: Runner) -> tuple[list[dict], int, dict]:
    reps, pairs, mismatches = [], [], 0
    stream = 0
    while True:
        began = runner.elapsed()
        plain = runner.spawn(stream)
        traced = runner.spawn(stream, trace=True)
        reps += [plain, traced]
        mismatches += digest_mismatch(plain, traced)
        if "wall_s" in plain and "layers" in traced:
            pairs.append((plain, traced, runner.elapsed() - began))
        stream += 1
        if not pairs or not runner.room_for([p[2] for p in pairs]):
            break
    if not pairs:
        return reps, mismatches, {}
    metrics = {}
    for name, (_, unit) in pairs[0][1]["layers"].items():
        metrics[name] = (statistics.median(t["layers"][name][0] for _, t, _ in pairs), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(at_ref(t["wall_s"], t["calibration_s"])
                          - at_ref(p["wall_s"], p["calibration_s"]) for p, t, _ in pairs), "s")
    return reps, mismatches, metrics


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(reps: list[dict]) -> dict:
    described = next((r for r in reps if "workload" in r), {})
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": described.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "workload": described.get("workload"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shiftsse" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'shiftsse'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args)
    measure = measure_traced if args.trace else measure_plain
    reps, mismatches, metrics = measure(runner)
    attempted, failed = tally(reps)
    failed = min(attempted, failed + mismatches)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(reps),
        "digest": reps[0].get("digest"), "repetitions": reps,
    }
    tag = "-tiny" * args.tiny
    (OUT_DIR / f"result-{args.workload}{tag}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for rep in reps:
        for problem in rep.get("problems", []) + ([rep["error"]] if "error" in rep else []):
            print(f"check failed (stream {rep.get('stream')}): {problem}", file=sys.stderr)
    if mismatches:
        print(f"determinism digest differs in {mismatches} repetition pair(s)",
              file=sys.stderr)
    if not metrics:
        print("error: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"digest: {record['digest']}")
    plain = [r for r in reps if "wall_s" in r and "layers" not in r]
    print(f"measured (unscaled) medians: wall_s "
          f"{statistics.median(r['wall_s'] for r in plain):.4f} s, sweeps_per_s "
          f"{statistics.median(r['sweeps'] / r['wall_s'] for r in plain):.2f} 1/s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
