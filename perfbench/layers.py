"""Which bindings the traced run wraps, and the per-layer metrics it reports.

Each target names the binding its caller looks up at call time: the
sampler calls ``contract``, ``string_matrix_element`` and ``weight_of``
through ``shiftsse.sampler``, ``string_matrix_element`` calls ``prepare``
and ``apply_term`` through ``shiftsse.statevec``, ``harness.run`` calls
``run_chain`` and ``energy`` through ``shiftsse.harness``, and
``ed.spectrum`` calls ``symmetric_eigensystem`` and ``dense_hamiltonian``
through ``shiftsse.ed``.
"""

from __future__ import annotations

from array import array

from tracer import Target, Tracer, median_us, tail_percentile


def _snapshot(args):
    config = args[0]
    return config.weight_value, config.alpha, list(config.string)


def _count_accepted(stat, before, args, result):
    config = args[0]
    weight, alpha, string = before
    accepted = (config.weight_value != weight
                or (config.alpha is not alpha and config.alpha != alpha)
                or config.string != string)
    stat.extra["accepted"] = stat.extra.get("accepted", 0) + accepted


def _count_kept(stat, before, args, result):
    stat.extra["terms_in"] = stat.extra.get("terms_in", 0) + len(args[0])
    stat.extra["terms_out"] = stat.extra.get("terms_out", 0) + len(result.terms)


def _count_bytes(stat, before, args, result):
    # one complex128 amplitude vector of 2^N entries computed per call
    stat.extra["bytes"] = stat.extra.get("bytes", 0) + (16 << args[0].n_qubits)


def _record_order(stat, before, args, result):
    stat.extra.setdefault("orders", array("q")).append(result[1].order)


UPDATES = ("update_alpha", "update_string_fixed_n", "update_insert_remove")

TARGETS = [
    Target("shiftsse.harness", "run", "harness.run", span=True),
    Target("shiftsse.harness", "write_campaign_csv", "harness.write_campaign_csv", span=True),
    Target("shiftsse.harness", "run_chain", "sampler.run_chain", span=True),
    Target("shiftsse.sampler", "run_chain", "sampler.run_chain", span=True),
    Target("shiftsse.sampler", "sweep", "sampler.sweep", span=True, durations=True,
           after=_record_order),
    *[Target("shiftsse.sampler", name, f"sampler.{name}",
             before=_snapshot, after=_count_accepted) for name in UPDATES],
    Target("shiftsse.sampler", "weight_of", "sampler.weight_of", durations=True),
    Target("shiftsse.sampler", "contract", "contraction.contract", durations=True,
           after=_count_kept),
    Target("shiftsse.sampler", "string_matrix_element", "statevec.string_matrix_element"),
    Target("shiftsse.statevec", "prepare", "statevec.prepare"),
    Target("shiftsse.statevec", "apply_term", "statevec.apply_term", after=_count_bytes),
    Target("shiftsse.estimators", "RunAccumulators.add", "estimators.RunAccumulators.add"),
    Target("shiftsse.estimators", "energy", "estimators.energy", span=True),
    Target("shiftsse.harness", "energy", "estimators.energy", span=True),
    Target("shiftsse.ed", "thermal_energy", "ed.thermal_energy", span=True),
    Target("shiftsse.ed", "symmetric_eigensystem", "ed.symmetric_eigensystem", span=True),
    Target("shiftsse.ed", "dense_hamiltonian", "model.dense_hamiltonian", span=True),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); absent layers read zero."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    stat = tracer.stat
    contract = stat("contraction.contract")
    put("contraction.contract.calls", contract.calls, "count")
    put("contraction.contract.total_s", contract.total_s, "s")
    put("contraction.contract.us_p50", median_us(contract), "us")
    put("contraction.contract.kept_ratio",
        _ratio(contract.extra.get("terms_out", 0), contract.extra.get("terms_in", 0)), "ratio")

    sme = stat("statevec.string_matrix_element")
    put("statevec.string_matrix_element.calls", sme.calls, "count")
    put("statevec.string_matrix_element.self_s", sme.self_s, "s")
    apply_term = stat("statevec.apply_term")
    put("statevec.apply_term.calls", apply_term.calls, "count")
    put("statevec.apply_term.total_s", apply_term.total_s, "s")
    put("statevec.apply_term.bytes_computed", apply_term.extra.get("bytes", 0), "B")
    prepare = stat("statevec.prepare")
    put("statevec.prepare.calls", prepare.calls, "count")
    put("statevec.prepare.total_s", prepare.total_s, "s")

    weight_of = stat("sampler.weight_of")
    put("sampler.weight_of.calls", weight_of.calls, "count")
    put("sampler.weight_of.self_s", weight_of.self_s, "s")
    put("sampler.weight_of.us_p50", median_us(weight_of), "us")
    sweep = stat("sampler.sweep")
    durations = sweep.durations or []
    tail_pct, tail_s = tail_percentile(durations)
    put("sampler.sweep.ms_p50", median_us(sweep) / 1e3, "ms")
    put("sampler.sweep.ms_tail", tail_s * 1e3, "ms")
    put("sampler.sweep.tail_pct", tail_pct, "%")
    for name in UPDATES:
        update = stat(f"sampler.{name}")
        put(f"sampler.{name}.calls", update.calls, "count")
        put(f"sampler.{name}.total_s", update.total_s, "s")
        put(f"sampler.{name}.accept_ratio",
            _ratio(update.extra.get("accepted", 0), update.calls), "ratio")
    orders = sweep.extra.get("orders") or [0]
    put("sampler.order_mean", sum(orders) / len(orders), "operators")
    put("sampler.order_max", max(orders), "operators")

    add = stat("estimators.RunAccumulators.add")
    put("estimators.RunAccumulators.add.calls", add.calls, "count")
    put("estimators.RunAccumulators.add.total_s", add.total_s, "s")
    put("estimators.energy.total_s", stat("estimators.energy").total_s, "s")

    thermal = stat("ed.thermal_energy")
    put("ed.thermal_energy.calls", thermal.calls, "count")
    put("ed.thermal_energy.total_s", thermal.total_s, "s")
    put("ed.symmetric_eigensystem.total_s", stat("ed.symmetric_eigensystem").total_s, "s")
    put("model.dense_hamiltonian.total_s", stat("model.dense_hamiltonian").total_s, "s")

    run = stat("harness.run")
    put("harness.run.calls", run.calls, "count")
    put("harness.run.self_s", run.self_s, "s")
    put("harness.write_campaign_csv.total_s", stat("harness.write_campaign_csv").total_s, "s")
    return out
