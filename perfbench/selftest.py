"""Self-test of the benchmark at tiny sizes (N = 3, a few hundred sweeps).

Usage: python3 perfbench/selftest.py      (from the root of a checkout)

Checks that
  * every metric BENCHMARK.json names is emitted with its unit, with
    tracing off (end-to-end) and on (per-layer), and the tiny runs pass
    their correctness checks;
  * the checks fire on a deliberately corrupted weight and on corrupted
    estimator outputs;
  * the tracer survives a wrapped function that does not exist, and
    reports it as calls = 0.
Exits 1 if anything fails. Takes about 15 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from shiftsse import sampler  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace, names in wanted.items():
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{label}: emits exactly the BENCHMARK.json metrics "
                                 f"(missing {sorted(set(names) - set(got))}, "
                                 f"extra {sorted(set(got) - set(names))}, units "
                                 f"{sorted(k for k in got if k in names and got[k] != names[k])})")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct with {result['attempted']} attempted, "
                   f"{result['failed']} failed")


def corrupted_weight() -> None:
    job = workloads.ChainJob(seed=3, stream=0, tiny=True)
    clean = job.check(job.execute(HERE / "out"))
    expect(clean.failed == 0, f"chain checks pass on the clean sampler {clean.problems}")
    honest = sampler.weight_of
    sampler.weight_of = lambda *args: honest(*args) * (1.0 + 1e-6)
    try:
        bad = job.check(job.execute(HERE / "out"))
    finally:
        sampler.weight_of = honest
    expect(bad.failed == 1 and any("cached weight" in p for p in bad.problems),
           f"chain checks fire on a weight corrupted by 1e-6: {bad.problems}")

    run_job = workloads.RunJob(seed=3, stream=0, tiny=True)
    record = run_job.execute(HERE / "out")
    expect(run_job.check(record).failed == 0, "run checks pass on the clean record")
    for field, value in (("energy", record["energy"] + 50 * record["energy_err"]),
                         ("avg_sign", -0.25), ("energy_ed", record["energy_ed"] + 1e-6),
                         ("error", "grid point rejected")):
        outcome = run_job.check(dict(record, **{field: value}))
        expect(outcome.failed == 1, f"run checks fire on a corrupted {field}: {outcome.problems}")


def missing_function() -> None:
    targets = [t for t in layers.TARGETS if t.name != "contraction.contract"]
    targets.append(Target("shiftsse.sampler", "no_such_function", "contraction.contract"))
    targets.append(Target("shiftsse.no_such_module", "contract", "contraction.contract"))
    job = workloads.ChainJob(seed=3, stream=0, tiny=True)
    with Tracer() as tracer:
        tracer.install(targets)
        job.execute(HERE / "out")
    metrics = layers.metrics(tracer)
    expect(len(tracer.missing) == 2, f"missing bindings reported: {tracer.missing}")
    expect(metrics["contraction.contract.calls"][0] == 0.0,
           "a missing function reads calls = 0")
    expect(metrics["sampler.weight_of.calls"][0] > 0, "the other layers are still traced")
    expect(sampler.weight_of.__name__ == "weight_of" and not hasattr(sampler.weight_of,
                                                                    "__wrapped__"),
           "uninstall restores the original bindings")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    corrupted_weight()
    missing_function()
    emitted_metrics()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
