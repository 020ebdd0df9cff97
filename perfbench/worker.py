"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --stream K
                                   [--trace] [--tiny] [--setup-only]

Times set-up (importing ``shiftsse`` and building the model, basis and
plan) and the workload's entry call, reads the process's peak resident
memory, then runs the correctness checks outside the timed region. A
fixed calibration kernel is timed right after set-up (just before the
entry call) and right after the entry call, so ``run.py`` can rescale
both times to a reference machine speed. With ``--trace`` the entry call
runs under the layer tracer and its spans are written to
``perfbench/out/``. The last line of standard output is one JSON object;
``run.py`` starts this script and reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CALIBRATION_SLICES = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def calibration_kernel() -> float:
    """Seconds one fixed slice of interpreter and small-array work takes.

    The slice does not touch ``shiftsse``; timing it next to a
    repetition tells how fast this machine ran at that moment.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(900_000):
        acc += i * i
    amps = np.ones(128, dtype=complex)
    phases = np.where(np.arange(128) % 3 == 0, -1.0, 1.0)
    partner = np.arange(128)[::-1].copy()
    for _ in range(12_000):
        amps = 0.5 * (amps + phases * amps[partner])
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetition(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import shiftsse  # noqa: F401  (timed: the package import is part of set-up)
    import workloads

    job = workloads.WORKLOADS[args.workload](args.seed, args.stream, args.tiny)
    result = {"setup_s": time.perf_counter() - start, "workload": job.describe()}
    import numpy
    result["numpy"] = numpy.__version__
    calibration = [calibration_kernel() for _ in range(CALIBRATION_SLICES)]
    result["setup_calibration_s"] = sum(calibration) / len(calibration)
    if args.setup_only:
        return result

    result.update(operations=job.operations, sweeps=job.sweeps)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with Tracer() as tracer:
            if args.trace:
                import layers
                tracer.install(layers.TARGETS)
            begin = time.perf_counter()
            outputs = job.execute(OUT_DIR)
            result["wall_s"] = time.perf_counter() - begin
    except Exception:
        result.update(failed=job.operations, problems=[traceback.format_exc()], digest=None)
        return result
    result["peak_rss_mb"] = peak_rss_mb()
    calibration += [calibration_kernel() for _ in range(CALIBRATION_SLICES)]
    result["calibration_s"] = sum(calibration) / len(calibration)
    try:
        outcome = job.check(outputs)
        result.update(failed=outcome.failed, problems=outcome.problems,
                      digest=outcome.digest)
    except Exception:
        result.update(failed=job.operations, problems=[traceback.format_exc()], digest=None)
    if args.trace:
        result["layers"] = layers.metrics(tracer)
        result["missing"] = tracer.missing
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}"
                                     f"-stream{args.stream}.jsonl")
    return result


def main(argv=None) -> int:
    print(json.dumps(repetition(parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
