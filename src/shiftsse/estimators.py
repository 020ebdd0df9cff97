"""Sign-reweighted observable estimation with binned error analysis.

Samples arrive as (sign, order) pairs, one per sweep, and fill N_BINS
fixed bins in arrival order. The bin sums total the run, and `energy`
turns them into

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
    "EnergyEstimate",
    "energy",
]

N_BINS = 20
UNRELIABLE_SIGN_SIGMAS = 3.0


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

    def __init__(self, expected_samples: int):
        self.expected_samples = expected_samples
        self.count = 0
        self.bin_count = np.zeros(N_BINS, dtype=np.int64)
        self.bin_sign = np.zeros(N_BINS)
        self.bin_order_sign = np.zeros(N_BINS)

    def add(self, sign: int, order: int) -> None:
        """Record one sweep sample; samples fill bins in arrival order, and
        one past `expected_samples` is refused."""
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign}")
        if self.count >= self.expected_samples:
            raise ValueError(f"all {self.expected_samples} expected samples "
                             "are already recorded")
        idx = self.count * N_BINS // self.expected_samples
        self.count += 1
        self.bin_count[idx] += 1
        self.bin_sign[idx] += sign
        self.bin_order_sign[idx] += order * sign

    def absorb(self, other: "RunAccumulators") -> None:
        self.expected_samples += other.expected_samples
        self.count += other.count
        self.bin_count += other.bin_count
        self.bin_sign += other.bin_sign
        self.bin_order_sign += other.bin_order_sign


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

    The mean sign carries the standard error of the bin means. When all
    signs are +1 the ratio collapses to the plain mean of the order and
    the offset term restores the shifted constants exactly. A vanishing
    sign average yields NaN value/error with reliable=False; the raw
    sign statistics are still attached.
    """
    if np.any(acc.bin_count == 0):
        raise ValueError(
            f"need at least one sample per bin ({N_BINS} bins, {acc.count} samples)"
        )
    sign_value = float(np.sum(acc.bin_sign)) / acc.count
    means = acc.bin_sign / acc.bin_count
    spread = np.sum((means - np.mean(means)) ** 2)
    sign_stderr = float(np.sqrt(spread / (N_BINS * (N_BINS - 1))))
    order_value, order_stderr = _jackknife_ratio(acc.bin_order_sign, acc.bin_sign)
    value = -order_value / model.beta + model.energy_offset
    stderr = order_stderr / model.beta
    reliable = (
        np.isfinite(value)
        and np.isfinite(stderr)
        and abs(sign_value) >= UNRELIABLE_SIGN_SIGMAS * sign_stderr
    )
    return EnergyEstimate(
        value=float(value),
        stderr=float(stderr),
        reliable=bool(reliable),
        order_value=float(order_value),
        order_stderr=float(order_stderr),
        sign_value=sign_value,
        sign_stderr=sign_stderr,
    )
