"""Exact-arithmetic calculators for instanton-type homology cobordism invariants.

The package computes the invariant Gamma, the h-invariant and their
spectral bounds from finite chain-level data over a Novikov coefficient
field, mechanically verifies the chain-level identities of the extended
differential, the equivariant exact triangle and cobordism-induced maps,
and ships closed-form calculators for Seifert fibered orbit data and
negative-definite lattice bounds.
"""

from .novikov import INF, NovikovElement, mdeg_tuple
from .floer_datum import (
    FloerDatum,
    Generator,
    HomogeneousVector,
    InputError,
    LambdaMatrix,
    Report,
    datum_from_json,
    datum_to_json,
    load_datum,
    validate,
    validate_homogeneity,
    validate_structure,
    verify_tilde_differential,
)
from .equivariant import (
    Window,
    XElement,
    check_d,
    hat_d,
    map_i,
    map_j,
    map_p,
    mdeg_bar,
    mdeg_check,
    mdeg_hat,
    verify_triangle,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from .gamma import (
    DatumInconsistencyError,
    MonotonicityError,
    SpecialSolution,
    eta_lower_bound,
    feasible_nonempty,
    gamma,
    gamma_profile,
    h_invariant,
    tau_lower_bound,
    tau_prime_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
