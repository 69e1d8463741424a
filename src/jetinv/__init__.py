"""Exact-arithmetic engine for reparametrization-invariant jet computations:
truncated jet composition, group matrices, symmetric-power embeddings,
Plücker-minor invariants, and one-parameter-subgroup orbit limits.
"""

from .exact import Matrix, PolyRing, ResourceLimitError, SparsePolynomial
from .jets import JetMap, compose, group_matrix, identity_jet, invert
from .embedding import PhiMatrix, WedgeVector, apply_group_to_wedge, p_point, phi
from .invariants import (
    InvariantPoly,
    generator_set,
    solution_space_equals_perp,
    test_curve_system,
    verify_generator_suite,
)
from .orbits import (
    EpsWeight,
    OneParamSubgroup,
    codim_report,
    extra_stabilizer,
    hilbert_mumford_torus,
    infinitesimal_stabilizer,
    lambda_sigma,
    limit_point,
    limit_stabilizer_matrix,
    mu_sigma,
    z_closed_form,
)

__all__ = [
    "Matrix",
    "PolyRing",
    "ResourceLimitError",
    "SparsePolynomial",
    "JetMap",
    "compose",
    "group_matrix",
    "identity_jet",
    "invert",
    "PhiMatrix",
    "WedgeVector",
    "apply_group_to_wedge",
    "p_point",
    "phi",
    "InvariantPoly",
    "generator_set",
    "solution_space_equals_perp",
    "test_curve_system",
    "verify_generator_suite",
    "EpsWeight",
    "OneParamSubgroup",
    "codim_report",
    "extra_stabilizer",
    "hilbert_mumford_torus",
    "infinitesimal_stabilizer",
    "lambda_sigma",
    "limit_point",
    "limit_stabilizer_matrix",
    "mu_sigma",
    "z_closed_form",
]
