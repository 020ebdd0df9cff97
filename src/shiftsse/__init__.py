"""Series-expansion Monte Carlo with per-term constant shifts.

Samples the antiferromagnetic anisotropic XY chain through operator
strings of shifted bond factors, tracks the configuration sign, and
benchmarks against exact diagonalization and brute-force
partition sums.
"""

from .contraction import ContractedString, commute_adjacent, contract, merge_same_bond, sandwich_eliminate
from .ed import spectrum, thermal_energy
from .estimators import Estimate, EnergyEstimate, RunAccumulators, average_sign, energy
from .harness import CampaignSpec, ResultRecord, RunConfig, campaign, run
from .model import BondTerm, ModelSpec, PauliFlavor, active_terms, dense_hamiltonian
from .oracle import ancilla_weight, brute_force_partition
from .sampler import (
    Configuration,
    SweepPlan,
    rng_stream,
    run_chain,
    sweep,
    update_alpha,
    update_insert_remove,
    update_string_fixed_n,
    weight_of,
)
from .statevec import BasisChoice, StateVector, prepare

__version__ = "0.1.0"
