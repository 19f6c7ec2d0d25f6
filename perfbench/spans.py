"""Spans around the public functions of each floergamma layer.

The tracer replaces a function at every binding that refers to it: the
defining module, every floergamma module that imported the same object
with ``from x import f``, and default arguments that hold it.  Nothing
under src/ changes; ``uninstall`` puts every original back.

A span is [name, start, end, parent, job]; parent is the index of the
enclosing span or -1.  Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

# (module, function, label, only in these modules or None for everywhere).
# The equivariant operations are traced only where cobordism calls them;
# verify_triangle's own calls stay inside its span.
EQUIVARIANT_OPS = ("hat_d", "check_d", "map_i", "map_j", "map_p",
                   "x_action_hat", "x_action_check", "x_action_bar")
TARGETS = (
    [("cli", "main", "cli.main", None),
     ("floer_datum", "load_datum", "floer_datum.load_datum", None),
     ("floer_datum", "validate", "floer_datum.validate", None)]
    + [("gamma", f, f"gamma.{f}", None)
       for f in ("gamma", "gamma_profile", "h_invariant", "feasible_nonempty")]
    + [("_linalg", f, f"linalg.{f}", None)
       for f in ("q_rank", "q_kernel_basis", "q_solve", "poly_matrix_rank")]
    + [("novikov", f, f"novikov.{f}", None)
       for f in ("to_rational_function", "common_scale")]
    + [("equivariant", "verify_triangle", "equivariant.verify_triangle", None)]
    + [("equivariant", f, f"equivariant.ops.{f}", ("cobordism",)) for f in EQUIVARIANT_OPS]
    + [("cobordism", f, f"cobordism.{f}", None)
       for f in ("verify_tilde_chain_map", "verify_functoriality", "mdeg_decay",
                 "correction_series", "gamma_comparison", "compose_tilde")]
    + [("seifert", f, f"seifert.{f}", None)
       for f in ("r_invariant_cotangent", "seifert_invariants", "sweep")]
    + [("lattice", f, f"lattice.{f}", None)
       for f in ("enumerate_up_to_norm", "signed_sum_even", "minimal_vectors")]
    + [("morse_minmax", "evaluate_class", "morse_minmax.evaluate_class", None)]
)
LAYERS = ("cli", "floer_datum", "gamma", "linalg", "novikov", "equivariant",
          "cobordism", "seifert", "lattice", "morse_minmax")


def _cells(rows) -> int:
    return len(rows) * max((len(r) for r in rows), default=0)


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._restore: list = []

    # -- hooks that count work at the boundary ---------------------------------

    def _on_call(self, label: str, args) -> None:
        if label in ("linalg.q_rank", "linalg.poly_matrix_rank"):
            self.counts[f"{label}.cells"] += _cells(args[0])
        elif label == "lattice.enumerate_up_to_norm":
            self.distinct[label].add((args[0].gram, args[1]))
        elif label == "cobordism.correction_series":
            self.distinct[label].add((self.job, id(args[0]), args[1]))

    def _on_result(self, label: str, result) -> None:
        if label == "lattice.enumerate_up_to_norm":
            self.counts[f"{label}.vectors"] += len(result)
        elif label == "equivariant.verify_triangle" and not result.ok:
            self.counts[f"{label}.fail"] += 1

    def wrap(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._on_call(label, args)
            span = [label, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1, tracer.job]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._on_result(label, result)
            return result
        return traced

    # -- installing and removing -------------------------------------------------

    def _rebind(self, original, replacement, only) -> None:
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("floergamma") or mod is None:
                continue
            if only and modname.rsplit(".", 1)[-1] not in only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                elif isinstance(value, types.FunctionType) and value.__defaults__ \
                        and any(d is original for d in value.__defaults__):
                    self._restore.append((value, "__defaults__", value.__defaults__))
                    value.__defaults__ = tuple(replacement if d is original else d
                                               for d in value.__defaults__)

    def install(self) -> None:
        for module, name, label, only in TARGETS:
            mod = sys.modules[f"floergamma.{module}"]
            original = getattr(mod, name)
            self._rebind(original, self.wrap(label, original), only)
        novikov = sys.modules["floergamma.novikov"]
        cls = novikov.NovikovElement
        init = cls.__init__
        counts = self.counts

        def counted_init(self_, *args, **kwargs):
            counts["novikov.elements"] += 1
            init(self_, *args, **kwargs)
        self._restore.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: defaultdict = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("per_job", "per_h", "per_gamma", "per_distinct", "ratio", "frac")):
        return "ratio"
    return "count"
