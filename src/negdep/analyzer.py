"""Exact pairwise-dependence analysis.

Everything here is exact rational arithmetic.  The central objects are the
joint law of a pair of distinct points (as integer counts over pairs of
1/n-grid cells, plus a per-cell position model) and anchored boxes [x, 1).
On top of those sit:

  * closed-form stratified pair probabilities per coordinate,
  * the discrete cell-pair law as exact integer counts, summed over
    index-pair classes,
  * joint box probabilities for every supported scheme and ablation,
  * a negative-dependence scanner over anchored-box grids (a factorized
    law in closed form, any other by one contraction with cell weights),
  * the structural checks that separate the shifted-lattice scheme from
    Latin hypercube sampling (copula equality, coordinate independence,
    triple containment counts: one lattice, by a uniqueness argument, and
    (n - 2)!^(dim - 1) latin grids, each in closed form), and
  * the ablation probes (missing shift, and shift-only with fixed
    distances, each in closed form: the latter's premise is
    floor(eps n) == 0; fixed generator).

Each spec's route (cell-weight position, continuous torus shift, shift
invariance, factorization, random generator) is decided once, by _law,
which every exact entry point reads before it charges any budget: a spec
that has no such law is refused at every size.  Jitter is never
discretized: a cell pair contributes its count times the exact overlap
fraction of each anchored interval with each cell.  A box query under a
continuous torus shift is integrated exactly as integer arc overlaps on a
common grid 1/D per coordinate, a block of lags at a time; a random
generator makes each coordinate one class.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, floor, gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .exact import any_digits, format_rational, is_prime, parse_rational
from .schemes import SchemeSpec, full_rsj, lhs_spec, spec_to_dict

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "UnsupportedSchemeError",
    "HypothesisViolatedError",
    "AnchoredBox",
    "DependenceReport",
    "stratified_pair_box_prob",
    "pair_box_prob",
    "pair_marginal_prob",
    "nuod_scan",
    "copula_equality_check",
    "CopulaCheck",
    "coordinate_independence_check",
    "IndependenceReport",
    "triple_distinguisher",
    "shift_only_conditional",
    "no_shift_mass",
    "report_to_json_dict",
]

DEFAULT_BUDGET = 10**8

# scanner table products stay below this to use int64; otherwise fall back
# to python-int (object dtype) arithmetic, exact either way
_INT64_SAFE_LIMIT = 2**62


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the term budget; refusing to subsample."""


class UnsupportedSchemeError(ValueError):
    """The requested exact computation is not defined for this spec."""


class HypothesisViolatedError(ValueError):
    """A premise of the requested probe fails; the witness is in args[0]."""


def _charge(work: int, budget: int, what: str, unit: str) -> None:
    """Refuse work above the budget, naming the work, its unit and the budget."""
    if work > budget:
        raise BudgetExceededError(f"{what} too large: {work} {unit} exceeds budget {budget}")


def _power(base: int, k: int, budget: int, what: str, unit: str) -> int:
    """base^k, a lower bound of work about to be charged, refused first if 2^k exceeds the budget.

    For base >= 2 the work is at least 2^k, so a large k is refused before
    base^k is formed: thousands of digits are slow to build and to print.
    """
    if base >= 2 and k >= int(budget).bit_length():
        raise BudgetExceededError(
            f"{what} too large: at least 2^{k} {unit} exceeds budget {budget}")
    return base**k


@dataclass(frozen=True)
class AnchoredBox:
    """Box [anchor, 1) per coordinate; anchor coordinates in [0,1), exact (parse_rational)."""

    anchor: tuple

    def __post_init__(self):
        anc = tuple(map(parse_rational, self.anchor))
        if any(not 0 <= a < 1 for a in anc):
            raise ValueError("anchor coordinates must lie in [0, 1)")
        object.__setattr__(self, "anchor", anc)

    @property
    def dim(self) -> int:
        return len(self.anchor)

    def volume(self) -> Fraction:
        # one Fraction over the integer products, not one per coordinate
        return Fraction(prod(a.denominator - a.numerator for a in self.anchor),
                        prod(a.denominator for a in self.anchor))


# -- the stratified closed form ----------------------------------------------


def stratified_pair_box_prob(q, r, n: int) -> Fraction:
    """Exact P(p1 >= q, p2 >= r) for a stratified pair of distinct points.

    The pair of strata is uniform over ordered distinct pairs and each point
    is uniform inside its stratum.  With eta, rho the 1-based strata of q, r
    and eps_q = eta - n q, eps_r = rho - n r the in-stratum tail fractions:

        eta != rho:  (n(1-q) - 1)(1-r) / (n-1)        (q in the lower stratum)
        eta == rho:  (n-eta)(n-eta-1+eps_q+eps_r) / (n(n-1))

    Always <= (1-q)(1-r), with equality exactly when q = 0 or r = 0.
    """
    q, r, n = parse_rational(q), parse_rational(r), operator.index(n)
    if not (0 <= q < 1 and 0 <= r < 1):
        raise ValueError("anchors must lie in [0, 1)")
    if n < 2:
        raise ValueError("a distinct pair needs at least two strata")
    eta = floor(n * q) + 1
    rho = floor(n * r) + 1
    if eta == rho:
        a = n - eta
        eps_q = eta - n * q
        eps_r = rho - n * r
        return Fraction(a) * (a - 1 + eps_q + eps_r) / (n * (n - 1))
    if eta > rho:
        q, r = r, q
    return (n * (1 - q) - 1) * (1 - r) / (n - 1)


# -- the discrete pair law ----------------------------------------------------


class _Law(NamedTuple):
    """How a spec's randomization enters its pair law; see _law."""

    position: str  # the cell weights: "jitter", "corner" or "midpoint"
    torus: bool  # a continuous torus shift: no cell law
    shift_invariant: bool  # the cell-pair law is a function of z2 - z1
    factorized: bool  # one ordered distinct cells factor per coordinate
    random: bool  # a random generator: every value 1..n-1 in every coordinate


def _law(spec: SchemeSpec, cells: bool = False) -> _Law:
    """The route of spec's exact pair law, decided once, before any budget is charged.

    Every exact entry point reads this first; nothing else maps kind,
    shift, generator and jitter to a route.  The latin kinds carry
    SchemeSpec's recorded flags (random generator, grid shift, jitter) and
    read as that lattice.  A random generator under a grid shift, jitter
    on or off, is factorized: given the index pair (a, b), gamma (b - a)
    is uniform over the nonzero residues and the shift over all of them,
    so each coordinate's cell pair is uniform over ordered distinct pairs,
    independently of the others and of (a, b): the law of lhs, which
    _pair_counts enumerates as one class.  Refused: n < 2
    (ValueError); a continuous torus shift with jitter, or with cells True,
    for a route that needs a cell law (UnsupportedSchemeError).
    """
    if spec.n < 2:
        raise ValueError("a distinct pair needs n >= 2")
    torus = spec.shift == "continuous_torus"
    if torus and cells:
        raise UnsupportedSchemeError("the discrete cell law is undefined for a continuous torus shift")
    if torus and spec.jitter:
        raise UnsupportedSchemeError("continuous torus shift combined with jitter is not analyzed")
    position = "midpoint" if spec.kind == "patterson" else "jitter" if spec.jitter else "corner"
    shift_invariant, random = spec.shift == "grid", spec.generator == "random"
    return _Law(position, torus, shift_invariant, shift_invariant and random, random)


def _pair_counts(spec: SchemeSpec, budget=DEFAULT_BUDGET, gather: bool = True):
    """Exact integer counts of the cell-pair law, as (P, total), or (F, total) ungathered.

    P[i, j] counts the configurations that put p1 in cell vector i and p2
    in cell vector j, with the n^dim cell vectors numbered lexicographically
    (coordinate 0 most significant); P / total is the law.  Given the index
    pair (a, b) of the two points, the generator and the shift act on each
    coordinate independently, so P is a sum over classes of index pairs.
    All classes are enumerated at once: a class's codes are the sums over
    coordinates of one code per generator value gamma, in every combination
    (a Kronecker sum), and one bincount counts the codes of every class.

    Under a grid shift P[z1, z2] depends on z2 - z1 only, and a class is
    (0, delta), delta = 1..n-1, standing for the n pairs with b - a = delta:
    coordinate i's code is the difference gamma delta mod n, and the
    bincount is the difference row F.  A factorized law (_law) is the one
    class (0, 1) whose coordinates take every value 1..n-1: under a random
    generator and a prime n, gamma delta runs over the nonzero residues as
    gamma does, so every class has the codes of (0, 1); the latin kinds
    are that class for composite n too.  Without a shift every ordered
    pair (a, b) is a class, coded by its cells (gamma a, gamma b) in P's
    layout.  Counts and total are divided by their common gcd; under a
    shift every row of P is a permutation of F, so the gcd is taken on F,
    and P is gathered from the reduced F in one pass.

    With gather False a shift-invariant law (a latin kind, or a grid
    shift) is returned as F itself, shape (n,) * dim with coordinate i on
    axis i and P[z1, z2] = F[z2 - z1] (total is still the sum of P, n^dim
    times the sum of F); a law without a shift is P either way.  The
    budget counts the codes, classes x prod_i |G_i| (n - 1 values for a
    random generator and the latin kinds, one for a fixed generator), plus
    the entries returned, n^(2 dim) for P and n^dim for F, before any
    generator array is built.  A continuous torus shift is refused first.
    """
    law = _law(spec, cells=True)
    n, dim, shifted = spec.n, spec.dim, law.shift_invariant
    cells = _power(n, dim, budget, "enumeration", "terms")
    # the class set: one if factorized, n - 1 differences under a shift, n (n - 1) pairs without
    classes = 1 if law.factorized else n - 1 if shifted else n * (n - 1)
    values, entries = n - 1 if law.random else 1, cells * cells if gather or not shifted else cells
    _charge(classes * values**dim + entries, budget, "enumeration", "terms")
    if shifted:
        b = np.arange(1, classes + 1)
    else:
        a, b = np.nonzero(1 - np.eye(n, dtype=np.int64))
    gammas = [np.arange(1, n)] * dim if law.random else [np.array([g]) for g in spec.generator]
    codes = np.zeros((len(b), 1), dtype=np.int64)
    for i, g in enumerate(gammas):
        place = n ** (dim - 1 - i)
        entry = g * b[:, None] % n * place
        if not shifted:  # under a shift a = 0: the code is the difference
            entry += g * a[:, None] % n * (place * cells)
        codes = (codes[:, :, None] + entry[:, None, :]).reshape(len(b), -1)
    counts = np.bincount(codes.ravel(), minlength=cells if shifted else cells * cells)
    total = int(counts.sum()) * (cells if shifted else 1)
    g = gcd(int(np.gcd.reduce(counts)), total)
    counts //= g
    if not shifted:
        return counts.reshape(cells, cells), total // g
    if not gather:
        return counts.reshape((n,) * dim), total // g
    # coordinate i's difference (z2_i - z1_i) mod n, on axes i (z1) and dim + i (z2)
    m = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    diffs = tuple(m.reshape([n if k in (i, dim + i) else 1 for k in range(2 * dim)])
                  for i in range(dim))
    return counts.reshape((n,) * dim)[diffs].reshape(cells, cells), total // g


def _sized_spec(n: int, dim: int, spec: SchemeSpec) -> SchemeSpec:
    """spec (default the full lattice), which must have size (n, dim)."""
    spec = spec if spec is not None else full_rsj(n, dim)
    if (spec.n, spec.dim) != (n, dim):
        raise ValueError("spec size does not match (n, dim)")
    return spec


# -- the integer kernel ------------------------------------------------------------
#
# A factorized law (_law) is one closed form (_step_terms), elementwise over
# a box query's d coordinates, or over the scan grid as one M x M table that
# every coordinate shares.  Any other law is one contraction (_contract) of
# its _pair_counts factor P with integer cell weights: the joint A^T P B and
# the marginals P.sum(1) A and P.sum(0) B, where A[z, Q] = P(p1 in Q | cell
# vector z) * den_a is the Kronecker product of one table per coordinate (B
# likewise for p2); a box query is the 1 x 1 case.  All arithmetic is on
# integers over a known common denominator: int64 where it bounds every
# entry below _INT64_SAFE_LIMIT, python ints otherwise.

# box pairs per kernel block: bounds a scan's memory, and keeps a block's
# arrays in cache (2^15 ran the factorized scans fastest among 2^13..2^17)
_BLOCK = 1 << 15


def _int_dtype(bound: int):
    """int64 for values of magnitude at most bound if that is safe, else python ints."""
    return np.int64 if bound < _INT64_SAFE_LIMIT else object


def _kron(tables, dtype) -> np.ndarray:
    """Kronecker product of the tables, first most significant; one table is not copied."""
    tables = [np.asarray(t, dtype=dtype) for t in tables]
    out = tables[0] if tables else np.ones((1, 1), dtype=dtype)
    for t in tables[1:]:
        out = (out[:, None, :, None] * t[None, :, None, :]).reshape(len(out) * len(t), -1)
    return out


def _cell_weights(c, nt, den, position: str):
    """P(x >= q | cell c) * den, elementwise in c's integer dtype, with nt = n q den.

    Of cell c = [c/n, (c+1)/n) jitter covers clamp((c+1) den - nt, 0, den); a
    corner c/n lies in [q, 1) iff c den >= nt, a midpoint iff (2c+1) den >= 2 nt.
    """
    if position == "jitter":
        # np.minimum/np.maximum: np.clip's call overhead dominates at small n
        return np.minimum(np.maximum((c + 1) * den - nt, 0), den)
    if position == "corner":
        inside = c * den >= nt
    elif position == "midpoint":
        inside = (2 * c + 1) * den >= 2 * nt
    else:
        raise ValueError(f"unknown position model {position!r}")
    return inside.astype(c.dtype) * den


def _weight_table(anchors, n: int, position: str):
    """T[c, k] = P(x >= anchors[k] | cell c) * den as integers, and den, the anchors' lcm denominator."""
    den = lcm(*(a.denominator for a in anchors))
    dtype = _int_dtype(2 * (n + 1) * den)
    nts = np.array([n * a.numerator * (den // a.denominator) for a in anchors], dtype=dtype)
    return _cell_weights(np.arange(n, dtype=dtype)[:, None], nts, den, position), den


# -- joint box probabilities ---------------------------------------------------


def _contract(P, total: int, tables_a, tables_b) -> tuple:
    """The count factor P, over total, contracted with both sides' cell weights.

    tables_a and tables_b hold p1's and p2's (table, den) of _weight_table per
    coordinate; A and B are their Kronecker products over den_a and den_b (B
    is A for one shared list).  Returns (A, P B, p1, p2, den_a, den_b) in the
    dtype of total den_a den_b: the joint A^T P B over total den_a den_b,
    p1 = P.sum(1) A over total den_a and p2 = P.sum(0) B over total den_b.
    """
    (ta, da), (tb, db) = zip(*tables_a), zip(*tables_b)
    den_a, den_b = prod(da), prod(db)
    dtype = _int_dtype(total * den_a * den_b)
    A = _kron(ta, dtype)
    B = A if tables_b is tables_a else _kron(tb, dtype)
    P = P.astype(dtype, copy=False)
    PB = P @ B
    return A, PB, P.sum(axis=1) @ A, PB.sum(axis=0), den_a, den_b


def _torus_overlaps(e, n: int, q: Fraction, r: Fraction, D: int) -> np.ndarray:
    """ov[k] = D x the measure of shifts u with u in [q, 1) and e[k]/n + u in [r, 1) (mod 1).

    On the 1/D grid (n, and the denominators of q and r, divide D) the
    first event is [qD, D) and the second the arc of length D - rD from
    (rD - eD/n) mod D, which wraps past D into [0, end - D) when end > D.
    The lags e are in a dtype that holds 2 D.
    """
    qD, rD = q.numerator * (D // q.denominator), r.numerator * (D // r.denominator)
    start = (rD - e * (D // n)) % D
    end = start + (D - rD)
    return (np.maximum(np.minimum(end, D) - np.maximum(start, qD), 0)
            + np.maximum(end - D - qD, 0))


def _torus_joint(n: int, coords) -> Fraction:
    """sum_delta prod over coords (gamma, q, r, D) of ov[gamma delta mod n], over (n - 1) prod D.

    delta runs over 1..n-1, one block of _BLOCK lags at a time, so memory
    does not grow with n: overlaps and products are int64 while 2 n D and
    prod D allow, and only the products are lifted to python ints to be summed.
    """
    Ds = [D for *_, D in coords]
    lag_dtype, dtype = _int_dtype(2 * n * max(Ds)), _int_dtype(prod(Ds))
    total = 0
    for first in range(1, n, _BLOCK):
        delta = np.arange(first, min(first + _BLOCK, n), dtype=lag_dtype)
        terms = np.ones(len(delta), dtype=dtype)
        for g, q, r, D in coords:
            terms = terms * _torus_overlaps(g * delta % n, n, q, r, D)
        total += sum(terms.tolist())
    return Fraction(total, (n - 1) * prod(Ds))


def _continuous_shift_box_prob(spec: SchemeSpec, random: bool, anchors1, anchors2,
                               budget) -> Fraction:
    """The joint of a box query on the jitterless lattice under a uniform torus shift.

    The measure of shifts putting x1 in [q, 1) and x2 in [r, 1) does not
    change when x1 and x2 move together, so an index pair (a, b) enters
    through delta = b - a (mod n) only, at x1 = 0 and x2 = gamma delta / n;
    each delta in 1..n-1 stands for n ordered pairs.  With ov_i the integer
    overlaps of coordinate i on the grid 1/D_i (_torus_overlaps), a fixed
    generator's joint is sum_delta prod_i ov_i[gamma_i delta mod n] over
    (n - 1) prod_i D_i (_torus_joint).  For a prime n, gamma delta runs
    over every nonzero residue for every delta, so a random generator is
    one class, prod_i sum_{e != 0} ov_i[e] / ((n - 1) D_i), with no
    generator array.  The budget counts the summed terms, dim (n - 1).
    """
    n = spec.n
    _charge(spec.dim * (n - 1), budget, "continuous-shift integration", "terms")
    gammas = (1,) * spec.dim if random else spec.generator
    coords = [(g, q, r, lcm(n, q.denominator, r.denominator))
              for g, q, r in zip(gammas, anchors1, anchors2)]
    return prod(_torus_joint(n, f) for f in ([[c] for c in coords] if random else [coords]))


def _step_terms(n: int, position: str, q, r) -> tuple:
    """(joint, p1, p2, den_joint, den_p1, den_p2) of a factorized law's one coordinate, elementwise.

    q and r are p1's and p2's anchors as (numerators, denominators) that
    broadcast: a box query's d coordinates, each over its own denominator, or
    the k/M grid as a column and a row (the M x M joint, two marginal vectors).
    A one-anchor weight column (_cell_weights) is a step: 0 below the anchor's
    cell s = floor(n q), w at s, den above.  So 1 - I over n (n - 1), ordered
    distinct cells, gives with sum_a = w_a + (n - 1 - s_a) den_a the joint
    sum_a sum_b - sum_c a[c] b[c] (nonzero from max(s_a, s_b) up) over
    n (n - 1) den_a den_b, and p1 (n - 1) sum_a over n (n - 1) den_a: O(1) per
    element whatever n, int64 where _int_dtype allows, python ints beyond.
    """
    (tq, dq), (tr, dr) = q, r
    dtype = _int_dtype(2 * (n + 1) ** 2 * max(np.ravel(dq).tolist() + np.ravel(dr).tolist()) ** 2)
    tq, dq, tr, dr = (np.asarray(v, dtype=dtype) for v in (tq, dq, tr, dr))

    def step(t, den):
        nt = n * t
        s = nt // den
        w = _cell_weights(s, nt, den, position)
        return s, w, w + (n - 1 - s) * den

    (s, w, sum_a), (t, v, sum_b) = step(tq, dq), step(tr, dr)
    top = np.maximum(s, t)
    diag = np.where(s == top, w, dq) * np.where(t == top, v, dr) + (n - 1 - top) * dq * dr
    total = n * (n - 1)
    return (sum_a * sum_b - diag, (n - 1) * sum_a, (n - 1) * sum_b,
            total * dq * dr, total * dq, total * dr)


def _pair_query(spec: SchemeSpec, Q: AnchoredBox, R: AnchoredBox, method: str = "auto",
                budget=DEFAULT_BUDGET) -> tuple:
    """(P(p1 in Q, p2 in R), P(p1 in Q), P(p2 in R)): every box query, its route picked here.

    The route is read from _law once the arguments are checked.  A
    factorized law (corner weights included) is answered in closed form on
    integers, O(1) per coordinate with no budget (_step_terms), by method
    "auto" and "closed_form" alike; any other law refuses "closed_form".
    The rest, and "enumeration" always, contract the one _pair_counts
    factor (the 1 x 1 case of _contract).  A continuous torus shift
    (jitterless) has no cell law: "auto" sums its classes
    (_continuous_shift_box_prob), with the box volumes as marginals, and
    the other methods are unsupported.  An unknown method raises ValueError.
    """
    if method not in ("auto", "enumeration", "closed_form"):
        raise ValueError(f"unknown method {method!r}")
    if Q.dim != spec.dim or R.dim != spec.dim:
        raise ValueError("box dimension does not match the scheme")
    law, n = _law(spec), spec.n
    if law.torus:
        if method != "auto":
            raise UnsupportedSchemeError(
                f"method {method!r} needs a cell law; a continuous torus shift has none")
        joint = _continuous_shift_box_prob(spec, law.random, Q.anchor, R.anchor, budget)
        return joint, Q.volume(), R.volume()
    if method == "closed_form" and not law.factorized:
        raise UnsupportedSchemeError("no closed form for this spec; use enumeration")
    if law.factorized and method != "enumeration":
        sides = [([a.numerator for a in b.anchor], [a.denominator for a in b.anchor]) for b in (Q, R)]
        terms = [v.tolist() for v in _step_terms(n, law.position, *sides)]
    else:
        # the law first: its budget refuses a large dim before d tables are built
        P, total = _pair_counts(spec, budget)
        tables_a = [_weight_table([q], n, law.position) for q in Q.anchor]
        # pair_marginal_prob passes its one box as both Q and R
        tables_b = tables_a if R is Q else [_weight_table([r], n, law.position) for r in R.anchor]
        A, PB, p1, p2, den_a, den_b = _contract(P, total, tables_a, tables_b)
        terms = [[int(A[:, 0] @ PB[:, 0])], [int(p1[0])], [int(p2[0])],
                 [total * den_a * den_b], [total * den_a], [total * den_b]]
    return tuple(Fraction(prod(terms[j]), prod(terms[j + 3])) for j in range(3))


def pair_box_prob(spec: SchemeSpec, Q: AnchoredBox, R: AnchoredBox,
                  method: str = "auto", budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p1 in Q, p2 in R) for anchored boxes Q, R: the joint of _pair_query.

    method "auto", "enumeration" or "closed_form" picks the route there; on a
    factorized law "auto" and "closed_form" are one O(dim) closed form.
    """
    return _pair_query(spec, Q, R, method, budget)[0]


def pair_marginal_prob(spec: SchemeSpec, box: AnchoredBox, side: int = 0,
                       budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p_side in box) under the pair law of the scheme, side 0 or 1."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, not {side!r}")
    if box.dim == spec.dim and _law(spec).torus:
        # a uniform torus shift makes each coordinate uniform
        return box.volume()
    return _pair_query(spec, box, box, budget=budget)[1 + side]


# -- negative-dependence scan ---------------------------------------------------


@dataclass(frozen=True)
class DependenceReport:
    """Outcome of a grid scan: worst clamped excess and every witness.

    grid holds a description of the probed anchor grid (materializing all
    M^(2 dim) box pairs would be wasteful); witnesses list each violating
    (Q, R, joint, product) exactly.
    """

    spec: SchemeSpec
    grid: dict
    worst_violation: Fraction
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.worst_violation == 0

    @classmethod
    def _ranked(cls, spec: SchemeSpec, grid_resolution: int, witnesses) -> "DependenceReport":
        """The report of a k/grid_resolution scan whose witnesses are in report order.

        That order is decreasing excess joint - product, ties broken by
        decreasing anchors (Q's, then R's).
        """
        worst = witnesses[0][2] - witnesses[0][3] if witnesses else Fraction(0)
        grid = {
            "resolution": grid_resolution,
            "anchors": f"k/{grid_resolution} for 0 <= k < {grid_resolution}",
            "boxes_per_side": grid_resolution**spec.dim,
            "pairs": grid_resolution ** (2 * spec.dim),
            "certifies_all_boxes": _law(spec).factorized and grid_resolution % spec.n == 0,
        }
        return cls(spec=spec, grid=grid, worst_violation=worst, witnesses=tuple(witnesses))


def _grid_anchors(grid_resolution: int) -> list:
    return [Fraction(k, grid_resolution) for k in range(grid_resolution)]


def _reduce(joint, total: int, p1, p2, den: int) -> tuple:
    """(joint total, p1, p2, den) over their common divisor, split between the marginals.

    joint total (or P B total, whose divisor divides A^T P B's) and p1 x p2
    are over den, whose dtype the three widen to first.
    """
    dtype = _int_dtype(den)
    joint, p1, p2 = (v.astype(dtype, copy=False) for v in (joint, p1, p2))
    joint = joint * total
    g1, g2 = int(np.gcd.reduce(p1)), int(np.gcd.reduce(p2))
    g = gcd(den, int(np.gcd.reduce(joint, axis=None)), g1 * g2)
    g1 = gcd(g, g1)
    return joint // g, p1 // g1, p2 // (g // g1), den // g


def _expand(joint_rows, p1, p2):
    """Blocks (first Q index, joint, product), _BLOCK box pairs each, one row per Q box.

    joint_rows(start, stop) gives Q boxes start..stop-1 against every R box;
    p1 and p2 are every box's marginals, boxes numbered lexicographically.
    """
    boxes = len(p1)
    step = max(1, _BLOCK // boxes)
    for start in range(0, boxes, step):
        stop = min(start + step, boxes)
        yield start, joint_rows(start, stop), np.multiply.outer(p1[start:stop], p2)


def _kron_tables(joint, p1, p2, den: int, dim: int) -> tuple:
    """(den^dim, joint rows, p1, p2) for _expand: Kronecker powers of one coordinate's tables.

    Box index h M + t: the leading coordinates' joint table (over h) is built
    once, and the last coordinate's rows are read per block.
    """
    den = den**dim
    dtype = _int_dtype(den)
    hs, ts = np.divmod(np.arange(len(p1) ** dim), len(p1))
    lead = _kron([joint] * (dim - 1), dtype)
    joint = joint.astype(dtype, copy=False)
    p1, p2 = (_kron([v[None]] * dim, dtype)[0] for v in (p1, p2))

    def rows(start, stop):
        h, t = hs[start:stop], ts[start:stop]
        return (lead[h][:, :, None] * joint[t][:, None, :]).reshape(stop - start, len(hs))

    return den, rows, p1, p2


def _step_table(n: int, position: str, m: int) -> tuple:
    """A factorized law's one-coordinate tables on the k/m grid, (joint, p1, p2, den), reduced.

    _step_terms gives the joint over total m^2, total = n (n - 1), and the
    marginals over total m, so joint total and p1 x p2 are over (total m)^2.
    """
    k, total = np.arange(m), n * (n - 1)
    joint, p1, p2, *_ = _step_terms(n, position, (k[:, None], m), (k, m))
    return _reduce(joint, total, p1[:, 0], p2, (total * m) ** 2)


def _dense_tables(spec: SchemeSpec, position: str, m: int, budget) -> tuple:
    """(den, joint rows A[:, Q]^T (P A), p1, p2) for _expand on the k/m grid, from _pair_counts."""
    P, total = _pair_counts(spec, budget)
    tables = [_weight_table(_grid_anchors(m), spec.n, position)] * spec.dim
    A, PA, p1, p2, den_a, _ = _contract(P, total, tables, tables)
    PA, p1, p2, den = _reduce(PA, total, p1, p2, (total * den_a) ** 2)
    dtype = _int_dtype(den)
    A, PA = A.astype(dtype, copy=False), PA.astype(dtype, copy=False)
    return den, lambda start, stop: A[:, start:stop].T @ PA, p1, p2


def nuod_scan(spec: SchemeSpec, grid_resolution: int, budget=DEFAULT_BUDGET) -> DependenceReport:
    """Check joint <= product for all anchored-box pairs on the k/M grid.

    The product side uses the scheme's exact marginals (equal to box volume
    whenever the scheme is marginally uniform).  When M is a multiple of n
    the grid decides every anchored box pair, for every cell law.  Hold
    each of the 2*dim anchor coordinates in one cell [j/n, (j+1)/n] of the
    1/n grid.  With jitter a cell weight is linear in its anchor there, and
    joint - product is multilinear in the anchors (the joint sums counts
    times one weight per anchor; the marginals of Q and R have disjoint
    anchors), so its largest value lies at a vertex.  Corner and midpoint
    weights take, at every anchor, their value at one end of the cell
    ((j/n, (j+1)/n] for corners, each side of the midpoint for midpoints),
    so every value of joint - product is a vertex value.  The vertices lie
    on the k/n grid (anchors at 1 make both sides vanish), so worst_violation
    at such M is the supremum over all anchored box pairs.  The report's
    certifies_all_boxes still claims this for factorized laws only.  A
    grid that is not a multiple of n can miss violations.

    A factorized law (stratified, lhs, patterson, and the random-generator
    lattice under a grid shift) gives each box pair a joint and a product
    that are products of one nonnegative entry per coordinate of one M x M
    table pair (_step_terms), so checking that table certifies every box
    pair, with no witnesses; only if it fails are all M^(2 dim) box pairs
    expanded.  Any other law is expanded directly.  The budget is _scan's:
    2 M^2 + 2 M for a factorized law, whatever n.

    A continuous-torus-shift spec has no cell law and is refused at every
    size; the fixed-distance probe (shift_only_conditional) covers it.
    """
    return _scan(spec, grid_resolution, budget)


def _scan(spec: SchemeSpec, grid_resolution: int, budget: int, csv_out=None) -> DependenceReport:
    """The k/M grid scan; with csv_out, its pairs CSV is written there too.

    A factorized law (_law) evaluates _step_terms once over the grid
    (_step_table), one table that every coordinate and both sides share;
    without csv_out it is the certificate, and if it holds there are no
    witnesses.  Any other law's _pair_counts factor is contracted with the
    grid's weight table (_dense_tables).  Otherwise every box pair is
    expanded once, _BLOCK at a time (_expand, over _kron_tables for a
    factorized law), and the witnesses and the CSV rows are read from the
    same blocks.  The witnesses are ranked on integers: by the excess
    joint - product over the common denominator, ties broken by box index,
    which is anchor order (coordinate 0 most significant); this is the
    report order (_ranked).  Each witness box is built once from the grid
    anchors, and each distinct probability is one Fraction.

    The law's route (_law) is read before any budget, so a continuous torus
    shift is refused at every size.  Each stage's budget is checked before
    it runs, the first before the law and the M anchors are built.  A
    factorized law charges its table's M^2 + 2 M entries and M^2
    comparisons, none of which grows with n; a contraction (c = n^dim cell
    vectors, B = M^dim boxes) costs c B (c + B) multiply-adds.  An
    expansion adds M^(2 dim) comparisons, on top of a failed certificate.

    csv_out is a text stream.  It receives nothing if the scan is refused;
    otherwise the header, then one write per block of box pairs, so the
    table is never held whole.  CSV columns Q, R, joint, product,
    violation, one row per box pair in lexicographic order: anchors as
    num/den joined by ';', probabilities as reduced num/den.
    """
    if grid_resolution < 1:
        raise ValueError("grid resolution must be positive")
    law, m, dim, n = _law(spec, cells=True), grid_resolution, spec.dim, spec.n
    certify = law.factorized and csv_out is None
    if law.factorized:
        work = m * m + 2 * m
    else:
        cells = _power(n, dim, budget, "grid scan", "multiply-adds")
        work = cells * m**dim * (cells + m**dim)
    work += m * m if certify else _power(m, 2 * dim, budget, "grid scan", "multiply-adds")
    _charge(work, budget, "grid scan", "multiply-adds")
    if law.factorized:
        table = _step_table(n, law.position, m)
        if certify:
            joint, p1, p2, _ = table
            if (joint <= np.multiply.outer(p1, p2)).all():
                return DependenceReport._ranked(spec, grid_resolution, [])
            _charge(work + _power(m, 2 * dim, budget, "grid scan", "multiply-adds"), budget,
                    "grid scan", "multiply-adds")
        den, rows, p1, p2 = _kron_tables(*table, dim)
    else:
        den, rows, p1, p2 = _dense_tables(spec, law.position, m, budget)
    anchors = _grid_anchors(m)  # after the certificate, which reads none

    if csv_out is not None:
        labels = np.array([";".join(q) + "," for q in product([format_rational(a) for a in anchors],
                                                             repeat=dim)], dtype=object)
        csv_out.write("Q,R,joint,product,violation\n")
    found = []  # (joint - product, Q index, R index, joint, product), numerators over den
    for start, joint, indep in _expand(rows, p1, p2):
        bad = joint > indep
        qs, rs = np.nonzero(bad)
        js, ps = joint[qs, rs], indep[qs, rs]
        found += zip((js - ps).tolist(), (qs + start).tolist(), rs.tolist(), js.tolist(), ps.tolist())
        if csv_out is not None:
            stop = start + len(joint)
            csv_out.write(_csv_block(labels[start:stop], labels, joint, bad, p1[start:stop], p2, den))
    # every entry is over den, and box index order is anchor order, so this
    # is the report order
    found.sort(reverse=True)
    boxes, probs = {}, {}

    def box(k):
        if k not in boxes:
            boxes[k] = AnchoredBox(tuple(anchors[k // m ** (dim - 1 - i) % m] for i in range(dim)))
        return boxes[k]

    def prob(v):
        if v not in probs:
            probs[v] = Fraction(v, den)
        return probs[v]

    return DependenceReport._ranked(spec, grid_resolution,
                                    [(box(q), box(r), prob(j), prob(p)) for _, q, r, j, p in found])


def _csv_block(q_labels, r_labels, joint, bad, p1, p2, den: int) -> str:
    """The pairs-CSV rows of one block of box pairs, labels being object arrays of "label,".

    The block's product table is the outer product of its Q boxes'
    marginals p1 and every R box's p2, so the products are formed from the
    two vectors' distinct values only.  Each distinct joint is formatted
    once, as "num/den,", and each distinct product once with each
    violation (bad), as "num/den,True\n" and "num/den,False\n".
    """
    (js, j), (u1, i1), (u2, i2) = (np.unique(v.ravel(), return_inverse=True) for v in (joint, p1, p2))
    ps, p = np.unique(np.multiply.outer(u1, u2).ravel(), return_inverse=True)
    with any_digits():
        jt, pt = ([f"{a}/{b}," for a, b in zip((v // g).tolist(), (den // g).tolist())]
                  for v, g in ((js, np.gcd(js, den)), (ps, np.gcd(ps, den))))
    tails = np.array([t + v for t in pt for v in ("False\n", "True\n")], dtype=object)
    p = p[(i1[:, None] * len(u2) + i2).ravel()]
    cells = np.array(jt, dtype=object)[j], tails[2 * p + bad.ravel()]
    pieces = np.broadcast_arrays(q_labels[:, None], r_labels, *(c.reshape(joint.shape) for c in cells))
    return "".join(np.stack(pieces, axis=-1).ravel().tolist())


# -- structural separations -----------------------------------------------------


class CopulaCheck(NamedTuple):
    """Whether two cell-pair laws are equal, and their largest pmf difference."""

    equal: bool
    max_discrepancy: Fraction


def copula_equality_check(n: int, dim: int, spec: SchemeSpec = None,
                          budget=DEFAULT_BUDGET) -> CopulaCheck:
    """Compare the cell-pair pmf of a lattice spec with the lhs pmf.

    Both laws are exact integer counts, compared over a common denominator:
    the discrepancy is the largest |P_a t_b - P_b t_a| / (t_a t_b).  The
    fully randomized lattice matches lhs exactly (discrepancy 0); a fixed
    generator does not.  lhs is shift-invariant, and so is a lattice under
    a grid shift: then both are compared on their difference rows F
    (_pair_counts ungathered), n^dim entries each.  P[z1, z2] = F[z2 - z1]
    for both, so the entries of P_a t_b - P_b t_a are those of
    F_a t_b - F_b t_a.  Only a lattice without a shift is compared on the
    n^(2 dim) entries of P, against the gathered lhs law.  Each law is
    charged to the budget on its own: its codes plus the entries returned.
    """
    spec = _sized_spec(n, dim, spec)
    gather = not _law(spec, cells=True).shift_invariant
    counts_a, t_a = _pair_counts(spec, budget, gather)
    counts_b, t_b = _pair_counts(lhs_spec(n, dim), budget, gather)
    dtype = _int_dtype(t_a * t_b)
    # both count arrays are private to this call: scale and subtract in place
    diff = counts_a.astype(dtype, copy=False)
    diff *= t_b
    scaled = counts_b.astype(dtype, copy=False)
    scaled *= t_a
    diff -= scaled
    worst = Fraction(int(np.abs(diff, out=diff).max()), t_a * t_b)
    return CopulaCheck(worst == 0, worst)


@dataclass(frozen=True)
class IndependenceReport:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def coordinate_independence_check(n: int, dim: int, spec: SchemeSpec = None,
                                  budget=DEFAULT_BUDGET) -> IndependenceReport:
    """Verify that coordinate pair-cells factorize over every index subset.

    For each I subset of {0..dim-1} and every assignment of cell pairs on I,
    the joint marginal over I must equal the product of single-coordinate
    marginals: on the integer counts C by per-coordinate cell pair code
    z1 * n + z2, C_I total^(|I|-1) == prod of the c_i.  If the full set
    factorizes, every subset does (summing out a coordinate of a product
    leaves a product), so a passing check makes that one comparison.  Only
    after it fails are the subsets searched, in combinations order, and
    the first failing assignment returned as witness, each coordinate's
    cell pairs in order of first appearance in the support of C (the
    nonzero cell-pair codes in Fortran order, coordinate 0 least
    significant).

    A shift-invariant law (a grid shift, or a latin kind) is checked on its
    difference row F alone (_pair_counts ungathered, n^dim entries): C is
    F[z2 - z1] per coordinate, so with S = sum F the marginals are
    C_I = n^(dim-|I|) F_I, total = n^dim S, and the test is exactly
    F_I S^(|I|-1) == prod F_i.  In the support of C a cell pair (z1, z2)
    first appears where every other coordinate takes its smallest code,
    and among the pairs of one difference e the smallest code is (0, e):
    so the cell pairs come in the order of first appearance of the
    differences in the support of F in Fortran order, each as (0, e), and
    the witness is the one the dense C gives.  Only a law without a shift
    is read as C, from its n^(2 dim) entries P.  Either way the test runs
    on one coordinate count array X (F or C) with S = sum X.  The budget
    counts the codes plus the entries built (_pair_counts).
    """
    spec = _sized_spec(n, dim, spec)
    gather = not _law(spec, cells=True).shift_invariant
    X, _ = _pair_counts(spec, budget, gather)
    if gather:
        axes = [ax for i in range(dim) for ax in (i, dim + i)]
        X = X.reshape((n,) * (2 * dim)).transpose(axes).reshape((n * n,) * dim)
        base, weight = n * n, 1
    else:
        # F's code e < n is the cell pair (0, e) = divmod(e, n), and stands for n cell pairs
        base, weight = n, n
    S = int(X.sum())
    X = X.astype(_int_dtype(S**dim), copy=False)
    singles = [X.sum(axis=tuple(j for j in range(dim) if j != i)) for i in range(dim)]

    def compare(idx):
        # compared on every code: off a coordinate's support both sides are 0
        size = len(idx)
        joint = X if size == dim else X.sum(axis=tuple(j for j in range(dim) if j not in idx))
        expected = singles[idx[0]]
        for i in idx[1:]:
            expected = np.multiply.outer(expected, singles[i])
        scaled = joint * S ** (size - 1)
        return np.array_equal(scaled, expected), joint, scaled, expected

    # a law that factorizes over all coordinates factorizes over every subset
    if compare(tuple(range(dim)))[0]:
        return IndependenceReport(True)
    # so the full set fails, and some subset fails first in combinations order
    for idx in chain.from_iterable(combinations(range(dim), k) for k in range(2, dim + 1)):
        equal, joint, scaled, expected = compare(idx)
        if not equal:
            break
    # the witness: the support of X in Fortran order (coordinate 0 least
    # significant), each coordinate's codes in order of first appearance there
    support = np.flatnonzero(X.ravel(order="F"))
    orders = []
    for i in idx:
        values, first = np.unique(support // base**i % base, return_index=True)
        orders.append(values[np.argsort(first)])
    cells = np.ix_(*orders)
    bad = scaled[cells] != expected[cells]
    at = np.unravel_index(np.argmax(bad), bad.shape)
    codes = tuple(int(o[k]) for o, k in zip(orders, at))
    return IndependenceReport(False, {
        "subset": idx,
        "cells": tuple(divmod(c, n) for c in codes),
        "joint": Fraction(int(joint[codes]), weight ** len(idx) * S),
        "product": prod(Fraction(int(singles[i][c]), weight * S) for i, c in zip(idx, codes)),
    })


def triple_distinguisher(n: int, dim: int, a, b, budget=DEFAULT_BUDGET) -> tuple:
    """Count discrete n-point configurations containing both cell vectors.

    Returns (lattice_count, lhs_count): the number of distinct shifted
    lattices containing both a and b, and of distinct latin grids
    containing both.  Requires a, b to differ in every coordinate.

    There is exactly one such lattice.  A lattice {g m + s} holding a is
    {a + g k : k in Z_n}; it holds b iff g delta = b - a (mod n) for some
    delta != 0, so g = (b - a) delta^-1.  As k -> delta^-1 k permutes Z_n
    (n prime), every such lattice is {a + (b - a) j : j in Z_n}, and its
    generator b - a is nonzero in every coordinate.

    A latin grid is keyed by its first coordinate: one permutation per
    further coordinate maps first cell to cell.  Holding a and b fixes two
    distinct values of each at two distinct places, which leaves (n - 2)!
    permutations per coordinate, (n - 2)!^(dim - 1) grids.

    The budget counts the limb products of that count's decimal form, the
    costliest step: int-to-decimal conversion is quadratic in the 30-bit
    limbs, and (dim - 1) (n - 2) bitlen(n - 2) bounds its bit length
    (bitlen(xy) <= bitlen(x) + bitlen(y)).  It is charged before the
    primality test.
    """
    if n < 5:
        raise ValueError("needs a prime n >= 5")
    if dim < 2:
        raise ValueError("needs dim >= 2")
    a = tuple(operator.index(v) for v in a)
    b = tuple(operator.index(v) for v in b)
    if len(a) != dim or len(b) != dim:
        raise ValueError("cell vectors must have length dim")
    if any(not 0 <= v < n for v in a + b):
        raise ValueError("cell indices must lie in [0, n)")
    if any(x == y for x, y in zip(a, b)):
        raise ValueError("cell vectors share a coordinate cell; they must differ everywhere")
    bits = (dim - 1) * (n - 2) * (n - 2).bit_length()
    _charge(((bits + 29) // 30) ** 2, budget, "latin count", "limb products")
    if not is_prime(n):
        raise ValueError("needs a prime n >= 5")
    return 1, factorial(n - 2) ** (dim - 1)


# -- ablation probes --------------------------------------------------------------


def no_shift_mass(n: int, dim: int) -> Fraction:
    """Exact P(p1 in [0, 1/n)^dim) for the unshifted jittered lattice.

    Jitter keeps each point inside its cell, so the event is exactly "the
    point's cell vector is zero": point m with generator g hits it iff
    g_i m = 0 (mod n) in every coordinate.  For a prime n only m = 0 does,
    under every generator: (n - 1)^dim of the (n - 1)^dim n (generator,
    point index) terms hit, so the value is 1/n for every dim, which breaks
    marginal uniformity as soon as dim >= 2 (a uniform point would give
    1/n^dim).  A closed form: no budget applies.
    """
    if dim < 1:
        raise ValueError("needs dim >= 1")
    if not is_prime(n):
        raise ValueError("needs a prime n")
    return Fraction(1, n)


def shift_only_conditional(spec: SchemeSpec, epsilon, budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p1 in Q | p2 in R) for the fixed-distance probe: 1, once its premise holds.

    Q = [0,1)^(d-1) x [eps/2, 1) and R = [0,1)^(d-1) x [1-eps/2, 1) in the
    last coordinate (to probe another, move its generator last).  Supported:
    the jitterless lattice with a continuous torus shift, and midpoint
    (patterson) sampling with the same continuous shift applied (without a
    shift its conditioning event has probability zero because the marginal
    is discrete).  The premise is every pair distance in the last
    coordinate above epsilon.  The distances are min(e, n - e) / n over the
    differences e = gamma delta mod n of every generator value and index
    difference (x1 = 0: a common shift moves no distance; distinct
    midpoints differ by every nonzero k/n, so patterson reads as a random
    generator, _law).  For a prime n, and for patterson's gamma 1, gamma
    delta runs over every nonzero residue, so the least distance is 1/n
    and the premise is floor(eps n) == 0: decided in O(1), with no budget.
    A violation is raised with the witness positions (0, e/n) of the first
    delta at which the coordinate's first generator value (1 for a random
    generator) violates, a search of its n - 1 differences charged before
    they are built.
    If p2 lies in [1 - eps/2, 1) at torus distance above eps from p1, then
    p1 lies in (eps/2, 1 - eps), inside [eps/2, 1); Q's other coordinates
    are [0, 1) and P(p2 in R) = eps/2 > 0 under the uniform shift.  So the
    conditional is 1, above the box volume 1 - eps/2, and the scheme
    cannot be pairwise negatively dependent.
    """
    eps = parse_rational(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2]")
    if spec.kind == "rsj_lattice" and (spec.shift != "continuous_torus" or spec.jitter):
        raise UnsupportedSchemeError("fixed-distance probe needs a jitterless continuous-torus shift")
    if spec.kind not in ("rsj_lattice", "patterson"):
        raise UnsupportedSchemeError(f"fixed-distance probe undefined for {spec.kind!r}")
    law, n = _law(spec), spec.n
    # distance min(e, n - e) / n <= eps; on integers m <= eps n iff m <= floor(eps n)
    floor_eps_n = eps.numerator * n // eps.denominator
    if floor_eps_n == 0:
        return Fraction(1)
    _charge(n - 1, budget, "fixed-distance premise", "terms")
    e = (1 if law.random else spec.generator[-1]) * np.arange(1, n, dtype=np.int64) % n
    e = int(e[np.argmax(np.minimum(e, n - e) <= floor_eps_n)])
    raise HypothesisViolatedError(
        f"pair distance {format_rational(Fraction(min(e, n - e), n))} <= epsilon "
        f"{format_rational(eps)} at positions (0/1, {format_rational(Fraction(e, n))})"
    )


# -- serialization ------------------------------------------------------------------


def report_to_json_dict(report: DependenceReport) -> dict:
    """The report with every rational as a "num/den" string."""
    return {
        "scheme": spec_to_dict(report.spec),
        "grid": report.grid,
        "worst_violation": format_rational(report.worst_violation),
        "violations": [{"Q": [format_rational(a) for a in Q.anchor],
                        "R": [format_rational(a) for a in R.anchor],
                        "joint": format_rational(joint), "product": format_rational(prodv)}
                       for Q, R, joint, prodv in report.witnesses],
    }
