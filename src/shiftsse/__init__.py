"""Series-expansion Monte Carlo with per-term constant shifts.

Samples the antiferromagnetic anisotropic XY chain through operator
strings of shifted bond factors, tracks the configuration sign, and
benchmarks against exact diagonalization and brute-force
partition sums.

The package root exports nothing: import each name from the module that
defines it, for example `from shiftsse.harness import RunConfig, run`.
"""

__version__ = "0.1.0"
