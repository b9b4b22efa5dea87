"""Periodic Toda lattice flows as a KdV workbench.

Two halves share one set of formulas: an exact symbolic engine that
re-derives and verifies the corrected lattice ansatz and its hierarchy of
flow equations, and a numeric lattice integrator whose polynomial invariants
and Bloch spectra can be tracked against the symbolic predictions.
"""

from .diffpoly import DiffPoly, EpsSeries, Monomial, Rational
from .hierarchy import (
    AnsatzPair,
    extend_R,
    flow_rhs_combined,
    kdv_leading,
    residual,
    standard_R,
)
from .lattice import (
    ConservedReport,
    LatticeState,
    Profile,
    asymptotic_C,
    builtin_profile,
    conserved_d,
    conserved_report,
    exact_invariants,
    init_from_profile,
    rhs_flow2,
    rhs_flow_k,
)
from .solver import (
    SolverConfig,
    Trajectory,
    compare_to_kdv,
    reference_kdv,
    run,
    step_cn,
    step_rk4,
)
from .bloch import band_distance, discriminant_scan, monodromy_continuous, monodromy_discrete

__version__ = "0.1.0"
