"""Sign-reweighted observable estimation with binned error analysis.

Samples arrive as (sign, order) pairs, one per sweep. The accumulator
keeps fixed-count bin sums, whose totals are the run totals, so that

  <sgn>  : mean of signs, stderr from the spread of bin means
  <n>    : reweighted ratio sum(n*sgn)/sum(sgn), stderr by jackknife
           over bins (the standard treatment for correlated MC ratios)
  energy : -<n>/beta + offset, with the offset restoring the constants
           added to each bond term

Error bars are 1 sigma. An energy estimate is flagged unreliable when
|<sgn>| < 3 * stderr(<sgn>): once the sign average is indistinguishable
from zero the reweighted ratio loses meaning, but the raw numbers are
still carried so callers can report them.

Accumulators absorb one another bin-by-bin, so independent chains
combine into one estimate; absorbing is associative and commutative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec

__all__ = [
    "RunAccumulators",
    "Estimate",
    "EnergyEstimate",
    "average_sign",
    "energy",
]

DEFAULT_BINS = 20
UNRELIABLE_SIGN_SIGMAS = 3.0


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy with its error, plus the reweighted order and sign behind it."""

    value: float
    stderr: float
    reliable: bool
    order_value: float
    order_stderr: float
    sign_value: float
    sign_stderr: float


class RunAccumulators:
    """Bin sums of sign and order*sign, filled in arrival order."""

    def __init__(self, n_bins: int = DEFAULT_BINS, expected_samples: int = 0):
        if n_bins < 2:
            raise ValueError(f"need at least 2 bins, got {n_bins}")
        self.n_bins = n_bins
        self.expected_samples = expected_samples
        self.count = 0
        self.bin_count = np.zeros(n_bins, dtype=np.int64)
        self.bin_sign = np.zeros(n_bins)
        self.bin_order_sign = np.zeros(n_bins)

    def add(self, sign: int, order: int) -> None:
        """Record one sweep sample; samples fill bins in arrival order."""
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign}")
        total = max(self.expected_samples, 1)
        idx = min(self.n_bins - 1, self.count * self.n_bins // total)
        self.count += 1
        self.bin_count[idx] += 1
        self.bin_sign[idx] += sign
        self.bin_order_sign[idx] += order * sign

    def absorb(self, other: "RunAccumulators") -> None:
        if other.n_bins != self.n_bins:
            raise ValueError("cannot merge accumulators with different bin counts")
        self.expected_samples += other.expected_samples
        self.count += other.count
        self.bin_count += other.bin_count
        self.bin_sign += other.bin_sign
        self.bin_order_sign += other.bin_order_sign


def _require_filled_bins(acc: RunAccumulators) -> None:
    if acc.count == 0:
        raise ValueError("no samples accumulated")
    if acc.count < acc.n_bins or np.any(acc.bin_count == 0):
        raise ValueError(
            f"need at least one sample per bin ({acc.n_bins} bins, {acc.count} samples)"
        )


def average_sign(acc: RunAccumulators) -> Estimate:
    """Mean sign with the standard error of bin means."""
    _require_filled_bins(acc)
    value = float(np.sum(acc.bin_sign)) / acc.count
    means = acc.bin_sign / acc.bin_count
    b = acc.n_bins
    stderr = float(np.sqrt(np.sum((means - np.mean(means)) ** 2) / (b * (b - 1))))
    return Estimate(value, stderr)


def _jackknife_ratio(num_bins: np.ndarray, den_bins: np.ndarray) -> tuple[float, float]:
    """Ratio sum(num)/sum(den) and its jackknife error over leave-one-out bins."""
    num_tot = float(np.sum(num_bins))
    den_tot = float(np.sum(den_bins))
    if den_tot == 0.0:
        return float("nan"), float("nan")
    den_loo = den_tot - den_bins
    if np.any(den_loo == 0.0):
        return num_tot / den_tot, float("nan")
    ratios = (num_tot - num_bins) / den_loo
    b = len(num_bins)
    var = (b - 1) / b * np.sum((ratios - np.mean(ratios)) ** 2)
    return num_tot / den_tot, float(np.sqrt(var))


def energy(acc: RunAccumulators, model: ModelSpec) -> EnergyEstimate:
    """Sign-reweighted energy -<n>/beta + offset with jackknife errors.

    When all signs are +1 the ratio collapses to the plain mean of the
    order and the offset term restores the shifted constants exactly.
    A vanishing sign average yields NaN value/error with reliable=False;
    the raw sign statistics are still attached.
    """
    _require_filled_bins(acc)
    sign_est = average_sign(acc)
    order_value, order_stderr = _jackknife_ratio(acc.bin_order_sign, acc.bin_sign)
    value = -order_value / model.beta + model.energy_offset
    stderr = order_stderr / model.beta
    reliable = (
        np.isfinite(value)
        and np.isfinite(stderr)
        and abs(sign_est.value) >= UNRELIABLE_SIGN_SIGMAS * sign_est.stderr
    )
    return EnergyEstimate(
        value=float(value),
        stderr=float(stderr),
        reliable=bool(reliable),
        order_value=float(order_value),
        order_stderr=float(order_stderr),
        sign_value=sign_est.value,
        sign_stderr=sign_est.stderr,
    )

