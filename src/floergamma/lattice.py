"""Negative-definite lattice computations: minimal norm, signed sums over
equal-norm congruent classes, and the resulting upper bounds.

Each lattice is factored exactly once: its constructor puts the form -Q
in exact rational Cholesky (LDL^T) form, and reads definiteness off the
pivots of that factor (Sylvester's criterion, see _cholesky).  It then
clears the factor's denominators (_cleared) and keeps only that integer
form: with den_i the lcm of the denominators of row i above the diagonal,
num_ij = den_i q[i][j] and S the lcm of the denominators of every
q[i][i] / den_i^2,

    S |Q(v)| = sum_i W_i (den_i v_i + sum_{j>i} num_ij v_j)^2,
    W_i = S q[i][i] / den_i^2,

all integers.  Every walk reads the kept form: a branch-and-bound walk
visits every integer vector within a norm bound in integer arithmetic, so
vector lists are complete by construction rather than sampled.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .floer_datum import InputError
from .novikov import MAX_DIGITS, TOO_BIG, format_rat


class LatticeInputError(InputError):
    pass


RANK_CAP = 12

# A walk that visits more nodes than this (partial vectors, the root and
# the complete vectors included) is refused, whatever the rank and bound:
# the count grows like bound^(n/2).  On a 2-core x86-64 VM with CPython
# 3.11.7, E8 at bound 8 visits 48,615 nodes in 0.07-0.14 s, and -I_12 at
# bound 5 visits 84,981 in 0.14-0.29 s (the spread of 18 runs each).
WALK_CAP = 50_000


class LatticeData:
    """Symmetric negative-definite integer Gram matrix of rank <= 12."""

    def __init__(self, gram):
        rows = (list, tuple)
        if not isinstance(gram, rows) or not all(isinstance(row, rows) for row in gram):
            raise LatticeInputError("Gram matrix must be a list of rows")
        g = [list(row) for row in gram]
        if any(isinstance(x, bool) or not isinstance(x, int) for row in g for x in row):
            raise LatticeInputError("Gram entries must be integers")
        n = len(g)
        if n == 0:
            raise LatticeInputError("lattice must have positive rank")
        if n > RANK_CAP:
            raise LatticeInputError(f"rank {n} exceeds the cap {RANK_CAP}")
        if any(len(row) != n for row in g):
            raise LatticeInputError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise LatticeInputError("Gram matrix must be symmetric")
        self.gram = tuple(tuple(row) for row in g)
        self.rank = n
        # (bound, representatives) of the widest walk so far; see
        # enumerate_up_to_norm.  Safe to keep since gram is immutable.
        self._widest: tuple[int, list] | None = None
        factor = _cholesky([[-x for x in row] for row in g])
        if factor is None:
            raise LatticeInputError("Gram matrix is not negative definite")
        self._form = _cleared(factor)

    def q(self, v) -> int:
        """Q(v) = v^T gram v (a non-positive integer)."""
        n = self.rank
        total = 0
        for i in range(n):
            if v[i] == 0:
                continue
            row = self.gram[i]
            for j in range(n):
                if v[j] != 0:
                    total += v[i] * row[j] * v[j]
        return total


def _cholesky(p):
    """q with P(v) = sum_i q[i][i] (v_i + sum_{j>i} q[i][j] v_j)^2, exact.

    None when the symmetric integer matrix P is not positive definite.
    Without row exchanges, the pivot q[i][i] met at step i is the last
    diagonal entry of a Schur complement, D_(i+1) / D_i, where D_k is the
    k-th leading principal minor of P (D_0 = 1), as long as the pivots
    before it are nonzero.  So the pivots are all positive exactly when
    every leading minor is, which by Sylvester's criterion is when P is
    positive definite; and at the first pivot <= 0, D_1, ..., D_i > 0 and
    D_(i+1) <= 0, so P is not.
    """
    n = len(p)
    q = [[Fraction(x) for x in row] for row in p]
    for i in range(n):
        if q[i][i] <= 0:
            return None
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _cleared(q):
    """The integer form (rows, dens, weights, S) of the factor q; see the module.

    rows[i] lists (j, num_ij) for the j > i with num_ij != 0.
    """
    n = len(q)
    dens = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    rows = [tuple((j, int(q[i][j] * dens[i])) for j in range(i + 1, n) if q[i][j])
            for i in range(n)]
    diag = [q[i][i] / (dens[i] * dens[i]) for i in range(n)]
    scale = math.lcm(*(d.denominator for d in diag))
    return rows, dens, [int(d * scale) for d in diag], scale


def enumerate_up_to_norm(L: LatticeData, bound: int):
    """All nonzero integer vectors with |Q(v)| <= bound, one per {v, -v} pair.

    Complete by construction: exact Cholesky bounds prune nothing that
    could satisfy the norm condition.  The walk visits vectors in
    lexicographic order of (v[n-1], ..., v[0]) whatever the bound, so a
    wider walk filtered to |Q(v)| <= bound is this list, order included.
    Each lattice therefore keeps its widest walk so far and answers every
    smaller bound from it; only a larger bound walks again.  A walk past
    WALK_CAP nodes raises LatticeInputError and stores nothing.  The order
    matters because callers report the first vector of a class that
    beats e as the non-minimality witness.
    """
    if L._widest is None or bound > L._widest[0]:
        L._widest = (bound, _walk(L, bound))
    return [(v, q) for v, q in L._widest[1] if -q <= bound]


def _walk(L: LatticeData, bound: int):
    """The Fincke-Pohst walk behind enumerate_up_to_norm, on the kept integer form.

    It carries the integer remainder R = S (bound - |Q|) of the levels set
    so far.  At level i, with c = sum_{j>i} num_ij v_j, the admissible v_i
    are the t with W_i (den_i t + c)^2 <= R, that is |den_i t + c| <= s for
    s = isqrt(R // W_i) (x^2 <= R / W_i iff x^2 <= floor(R / W_i) for an
    integer x), so exactly ceil((-s - c) / den_i) <= t <= floor((s - c) / den_i).
    At a leaf |Q(v)| = (bound S - R) / S, and v = 0 exactly when R = bound S.
    """
    rows, dens, weights, scale = L._form
    top = bound * scale
    found: list[tuple[tuple[int, ...], int]] = []
    v = [0] * L.rank
    nodes = 0

    def walk(i: int, rem: int):
        nonlocal nodes
        nodes += 1
        if nodes > WALK_CAP:
            raise LatticeInputError(
                f"the walk to norm {format_rat(bound)} visits more than {WALK_CAP} nodes, the cap")
        if i < 0:
            if rem < top:
                found.append((tuple(v), (rem - top) // scale))
            return
        c = sum(num * v[j] for j, num in rows[i])
        den, w = dens[i], weights[i]
        s = math.isqrt(rem // w)
        for t in range(-((s + c) // den), (s - c) // den + 1):
            v[i] = t
            x = den * t + c
            walk(i - 1, rem - w * x * x)
        v[i] = 0

    walk(L.rank - 1, top)
    # one representative per pair: first nonzero coordinate positive
    reps = []
    for vec, norm in found:
        lead = next(x for x in vec if x != 0)
        if lead > 0:
            reps.append((vec, norm))
    return reps


def minimal_norm(L: LatticeData) -> int:
    """m(L): least |Q(v)| over nonzero integer vectors."""
    bound = min(-L.gram[i][i] for i in range(L.rank))
    reps = enumerate_up_to_norm(L, bound)
    return min(-q for _, q in reps)


def minimal_vectors(L: LatticeData):
    """(m(L), all vectors of norm m(L) counting both signs)."""
    m = minimal_norm(L)
    reps = [v for v, q in enumerate_up_to_norm(L, m) if -q == m]
    both = [v for v in reps] + [tuple(-x for x in v) for v in reps]
    return m, both


def gamma_upper_bounds_from_lattice(L: LatticeData):
    """Bound m/4 on the invariant over 1 <= i <= floor(m/2), when m > 1."""
    m = minimal_norm(L)
    if m <= 1:
        return None
    return {"bound": Fraction(m, 4), "range_max": m // 2, "minimal_norm": m}


def _vector(L: LatticeData, v, name: str) -> tuple[int, ...]:
    """v as a tuple of ints, refused unless it has one entry per basis vector."""
    v = tuple(int(x) for x in v)
    if len(v) != L.rank:
        raise LatticeInputError(f"{name} has wrong length")
    return v


def _q_e(L: LatticeData, e) -> int:
    """Q(e), refused before any walk when it is too long to print."""
    qe = L.q(list(e))
    if abs(qe) >= TOO_BIG:
        raise LatticeInputError(f"Q(e) has more than {MAX_DIGITS} digits, too long to print")
    return qe


def _class_pairs(L: LatticeData, e):
    """One representative per pair {e', -e'} with e' = e mod 2, Q(e') = Q(e).

    Also verifies the minimality hypothesis |Q(e)| <= |Q(e')| over the
    whole congruence class, returning a smaller-norm witness if violated.
    """
    qe = L.q(list(e))
    target = -qe
    reps = enumerate_up_to_norm(L, target)
    witness = None
    cls = []
    for v, qv in reps:
        if all((x - y) % 2 == 0 for x, y in zip(v, e)):
            if -qv < target and witness is None:
                witness = v
            if qv == qe:
                cls.append(v)
    return cls, witness


def signed_sum_even(L: LatticeData, e) -> int:
    """sum over the class pairs of (-1)^Q((e + e')/2), Q(e) even."""
    e = _vector(L, e, "e")
    qe = _q_e(L, e)
    if qe % 2 != 0:
        raise LatticeInputError(f"Q(e) = {format_rat(qe)} is odd; use the weighted sum")
    return _class_sum(L, e, qe, (0,) * L.rank, 0)


def signed_sum_odd(L: LatticeData, e, xi, m: int) -> int:
    """sum of (-1)^Q((e + e')/2) (xi . e')^m over the class pairs.

    The parity hypothesis Q(e) = m mod 2 makes the chosen representative
    of each pair irrelevant.
    """
    e = _vector(L, e, "e")
    if m < 0:
        raise LatticeInputError("m must be a non-negative integer")
    qe = _q_e(L, e)
    if (qe - m) % 2 != 0:
        raise LatticeInputError(f"parity mismatch: Q(e) = {format_rat(qe)}, m = {format_rat(m)}")
    return _class_sum(L, e, qe, xi, m)


def _class_sum(L: LatticeData, e, qe: int, xi, m: int) -> int:
    """The body of both signed sums; the even one is xi = 0, m = 0 (0^0 = 1)."""
    if -qe < 2:
        raise LatticeInputError(f"|Q(e)| = {-qe} must be at least 2")
    xi = _vector(L, xi, "xi")
    cls, witness = _class_pairs(L, e)
    if witness is not None:
        raise LatticeInputError(
            f"e is not minimal in its class: {witness} has smaller norm")
    pairings = [sum(a * b for a, b in zip(xi, v)) for v in cls]
    # |p|^m >= 2^(m (b - 1)), b the bit length of |p|, and 2^10 > 10^3: at 3 m (b - 1) >=
    # 10 MAX_DIGITS the largest term has more than MAX_DIGITS digits; refuse before any power
    if 3 * m * (max(map(abs, pairings)).bit_length() - 1) >= 10 * MAX_DIGITS:
        raise LatticeInputError(f"(xi . e')^m has more than {MAX_DIGITS} digits")
    total = 0
    for v, pairing in zip(cls, pairings):
        half = [(x + y) // 2 for x, y in zip(e, v)]
        sign = -1 if L.q(half) % 2 else 1
        total += sign * pairing ** m
    return total


def bound_from_class(L: LatticeData, e, xi=None, m: int | None = None):
    """The (n0, bound) conclusion from a nonvanishing signed sum, or None.

    Without (xi, m) the even signed sum applies with n0 = -Q(e)/2; with
    them the weighted sum applies with n0 = -(Q(e) + m)/2.  A vanishing
    sum yields no conclusion.
    """
    e = _vector(L, e, "e")
    qe = _q_e(L, e)
    if xi is None and m is None:
        total = signed_sum_even(L, e)
        n0 = -qe // 2
    elif xi is not None and m is not None:
        total = signed_sum_odd(L, e, xi, m)  # refuses an odd -Q(e) - m
        n0 = (-qe - m) // 2
    else:
        raise LatticeInputError("xi and m must be given together")
    if total == 0:
        return None
    return {"n0": n0, "bound": Fraction(-qe, 4), "signed_sum": total}
