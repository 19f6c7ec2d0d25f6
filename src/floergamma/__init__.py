"""Exact-arithmetic calculators for instanton-type homology cobordism invariants.

The package computes the invariant Gamma, the h-invariant and their
spectral bounds from finite chain-level data over a Novikov coefficient
field, mechanically verifies the chain-level identities of the extended
differential, the equivariant exact triangle and cobordism-induced maps,
and ships closed-form calculators for Seifert fibered orbit data and
negative-definite lattice bounds.

Importing it runs novikov, _linalg, floer_datum and gamma, whose names it
and cli bind (tests patch cli.gamma_profile and cli.h_invariant).  The
other five modules sit in sys.modules, where the benchmark's tracer looks
every layer up, and run on first attribute access (importlib's LazyLoader):
a command runs only the modules it uses.
"""

import importlib.util
import sys

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

_EQUIVARIANT = ("Window", "XElement", "check_d", "hat_d", "map_i", "map_j", "map_p",
                "mdeg_bar", "mdeg_check", "mdeg_hat", "verify_triangle",
                "x_action_bar", "x_action_check", "x_action_hat")
__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 - {"importlib", "sys"} | {"equivariant", *_EQUIVARIANT})


def _lazy(name: str):
    """floergamma.<name>, registered in sys.modules, to run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cobordism, equivariant, lattice, morse_minmax, seifert = map(
    _lazy, ("cobordism", "equivariant", "lattice", "morse_minmax", "seifert"))


def __getattr__(name: str):
    if name in _EQUIVARIANT:
        return getattr(equivariant, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
