"""The exact routes against the direct computations they replaced.

The oracle functions below are the analyzer's earlier, direct forms:

  * the per-term Fraction weighting loops of the box probabilities and the
    scan, which weight every pmf entry of the cell-pair law by the exact
    in-cell overlap of each anchored interval, one Fraction at a time;
  * the enumerator of the lattice law, one bincount per ordered index pair
    over every (generator, grid shift) row;
  * the copula and independence checks on Fraction pmf dicts;
  * the torus-shift integration over every ordered index pair, with the
    circle geometry it was built on (torus_dist, CircularInterval,
    circular_overlap, _shifted_pair_overlap: Fraction arcs on the circle);
  * the Fraction cell weights behind the integer weight tables;
  * the fixed-distance probe over every (generator, a, b) configuration,
    a torus-arc sum that checks the probe's closed form 1, as the no-shift
    enumeration checks the mass 1/n;
  * the closed-form per-coordinate scan tables, one Fraction per anchor pair;
  * the patterson closed forms (the midpoint count, the pair and marginal
    factors), which with stratified_pair_box_prob check the integer step
    route of the factorized queries;
  * the cell-pair law as a Fraction pmf dict (discrete_pair_pmf, PairLaw);
  * the triple-containment lattice count, one frozenset per lattice of
    every (generator, shift), the reference for the closed count 1;
  * the triple-containment latin count, over every tuple of permutations,
    the reference for the closed form (n - 2)!^(dim - 1);
  * the no-shift first-cell mass, over every (generator, point index);
  * the rows of every box pair, one Fraction each (scan_pairs_rows);
  * the pairs table written row by row, format_rational and csv.writer per
    row of scan_pairs_rows;
  * the report of witnesses given in any order (report_from_witnesses),
    ranked by sorting Fraction excesses and anchors.

They stay here as the reference; results must match exactly, witness dicts
included.  Every scan route (the closed-form table, and the index-pair
classes of every other law) is also pinned against the dense one-factor
contraction of the law built here (dense_contraction), and nuod_scan's
certificate against the expansion over every box pair.
"""

import csv
import io
import random
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction as F
from itertools import combinations, islice, permutations, product
from math import factorial, gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negdep.analyzer as mod
from negdep import cli
from negdep.analyzer import (
    AnchoredBox,
    DependenceReport,
    HypothesisViolatedError,
    IndependenceReport,
    UnsupportedSchemeError,
    _class_tables,
    _expand,
    _grid_anchors,
    _lag_tables,
    _pair_counts,
    _law,
    _pair_query,
    _scan,
    _step_table,
    _weight_table,
    copula_equality_check,
    coordinate_independence_check,
    no_shift_mass,
    nuod_scan,
    pair_box_prob,
    pair_marginal_prob,
    report_to_json_dict,
    shift_only_conditional,
    stratified_pair_box_prob,
    triple_distinguisher,
)
from negdep.exact import format_rational
from negdep.schemes import (
    KINDS,
    SHIFTS,
    SchemeSpec,
    full_rsj,
    lhs_spec,
    patterson_spec,
    spec_to_dict,
    stratified_spec,
)

RSJ = "rsj_lattice"


def _cell_overlap(c, q, n):
    """Fraction of cell [c/n, (c+1)/n) covered by [q, 1)."""
    w = F(c + 1) - n * q
    if w <= 0:
        return F(0)
    return w if w < 1 else F(1)


def _cell_weight(c, q, n, position):
    """P(point >= q | cell c) under the scheme's in-cell position model."""
    if position == "jitter":
        return _cell_overlap(c, q, n)
    if position == "corner":
        return F(1) if F(c, n) >= q else F(0)
    if position == "midpoint":
        return F(1) if F(2 * c + 1, 2 * n) >= q else F(0)
    raise ValueError(f"unknown position model {position!r}")


def _midpoint_count(q, n):
    """Number of cell midpoints (2c+1)/(2n) lying in [q, 1)."""
    q = F(q)
    # (2c+1)/(2n) >= q  <=>  c >= (2nq - 1)/2
    lo = 2 * n * q - 1
    c_min = -(-lo.numerator // (2 * lo.denominator)) if lo > 0 else 0
    return max(0, n - c_min)


def patterson_pair_factor(q, r, n):
    """Exact P(p1 >= q, p2 >= r) per coordinate for midpoint lattice sampling."""
    if n < 2:
        raise ValueError("a distinct pair needs at least two strata")
    cq = _midpoint_count(q, n)
    cr = _midpoint_count(r, n)
    cboth = _midpoint_count(max(F(q), F(r)), n)
    return F(cq * cr - cboth, n * (n - 1))


def patterson_marginal_factor(q, n):
    return F(_midpoint_count(q, n), n)


def oracle_factorized_query(spec, Q, R):
    """(joint, P(p1 in Q), P(p2 in R)) of a factorized law by the per-coordinate closed forms.

    The joint multiplies one pair factor per coordinate (patterson_pair_factor
    for midpoints, stratified_pair_box_prob for jitter); the marginals are
    prod patterson_marginal_factor for midpoints, the box volumes for the
    jittered kinds.  Cell corners have no closed form here.
    """
    assert _law(spec).factorized and _law(spec).position != "corner"
    n = spec.n
    if spec.kind == "patterson":
        pair = patterson_pair_factor
        marginals = [prod(patterson_marginal_factor(a, n) for a in box.anchor) for box in (Q, R)]
    else:
        pair, marginals = stratified_pair_box_prob, [Q.volume(), R.volume()]
    return prod(pair(q, r, n) for q, r in zip(Q.anchor, R.anchor)), *marginals


@dataclass(frozen=True)
class PairLaw:
    """Joint law of two distinct points: cell-pair pmf + position model.

    pmf maps (cells of p1, cells of p2) to exact probabilities summing to 1.
    position is "jitter" (uniform in cell), "corner" or "midpoint".
    """

    spec: SchemeSpec
    n: int
    dim: int
    pmf: dict
    position: str

    def validate(self) -> None:
        total = sum(self.pmf.values(), F(0))
        if total != 1:
            raise ValueError(f"pmf sums to {total}, expected 1")
        for z1, z2 in self.pmf:
            if any(a == b for a, b in zip(z1, z2)):
                raise ValueError("support contains a coordinate-equal cell pair")

    def marginal(self, side: int) -> dict:
        out = {}
        for (z1, z2), p in self.pmf.items():
            key = z1 if side == 0 else z2
            out[key] = out.get(key, F(0)) + p
        return out


def discrete_pair_pmf(n, dim, spec=None, budget=10**8):
    """The cell-pair law of _pair_counts as a Fraction pmf dict.

    The support goes in order of the per-coordinate codes z1 * n + z2,
    coordinate 0 least significant: the order in which
    coordinate_independence_check reads its witness.
    """
    spec = spec if spec is not None else full_rsj(n, dim)
    return pair_law(spec, *mod._pair_counts(spec, budget))  # looked up per call: tests patch it


def pair_law(spec, P, total):
    """The cell-pair law of the counts P over total as a PairLaw, in discrete_pair_pmf's order."""
    n, dim = spec.n, spec.dim
    i1, i2 = np.nonzero(P)
    cellv = np.array(list(product(range(n), repeat=dim)), dtype=np.int64)
    codes = (cellv[i1] * n + cellv[i2]) @ (np.int64(n * n) ** np.arange(dim, dtype=np.int64))
    order = np.argsort(codes)
    cellv = [tuple(z) for z in cellv.tolist()]
    pmf = {
        (cellv[a], cellv[b]): F(int(P[a, b]), total)
        for a, b in zip(i1[order].tolist(), i2[order].tolist())
    }
    law = PairLaw(spec=spec, n=n, dim=dim, pmf=pmf, position=_law(spec).position)
    law.validate()
    return law


def law_of(spec):
    return discrete_pair_pmf(spec.n, spec.dim, spec)


def oracle_box_prob(law, Q, R):
    n, pos = law.n, law.position
    total = F(0)
    for (z1, z2), p in law.pmf.items():
        w = p
        for c, q in zip(z1, Q.anchor):
            if w == 0:
                break
            w *= _cell_weight(c, q, n, pos)
        else:
            for c, r in zip(z2, R.anchor):
                if w == 0:
                    break
                w *= _cell_weight(c, r, n, pos)
        total += w
    return total


def oracle_marginal_prob(law, box, side):
    total = F(0)
    for cells, p in law.marginal(side).items():
        w = p
        for c, a in zip(cells, box.anchor):
            if w == 0:
                break
            w *= _cell_weight(c, a, law.n, law.position)
        total += w
    return total


def oracle_scan(spec, m, law=None):
    """(worst, witnesses) of the k/m grid scan, witnesses in report order; law defaults to law_of(spec)."""
    law = law if law is not None else law_of(spec)
    anchors = [F(k, m) for k in range(m)]
    n, pos, dim = law.n, law.position, spec.dim
    wtab = [[_cell_weight(c, a, n, pos) for a in anchors] for c in range(n)]

    def box_prob(marg, ks):
        tot = F(0)
        for cells, p in marg.items():
            w = p
            for c, k in zip(cells, ks):
                if w == 0:
                    break
                w *= wtab[c][k]
            tot += w
        return tot

    all_boxes = list(product(range(m), repeat=dim))
    marg1, marg2 = law.marginal(0), law.marginal(1)
    p1 = {ks: box_prob(marg1, ks) for ks in all_boxes}
    p2 = {ks: box_prob(marg2, ks) for ks in all_boxes}
    worst = F(0)
    witnesses = []
    for qks in all_boxes:
        # the Q half of each term's weight does not depend on R: sum it per
        # cell vector of p2 once
        partial = {}
        for (z1, z2), p in law.pmf.items():
            w = p
            for c, k in zip(z1, qks):
                if w == 0:
                    break
                w *= wtab[c][k]
            if w != 0:
                partial[z2] = partial.get(z2, F(0)) + w
        for rks in all_boxes:
            joint = F(0)
            for z2, w in partial.items():
                for c, k in zip(z2, rks):
                    if w == 0:
                        break
                    w *= wtab[c][k]
                joint += w
            prodv = p1[qks] * p2[rks]
            if joint > prodv:
                worst = max(worst, joint - prodv)
                Q = AnchoredBox(tuple(anchors[k] for k in qks))
                R = AnchoredBox(tuple(anchors[k] for k in rks))
                witnesses.append((Q, R, joint, prodv))
    witnesses.sort(key=lambda w: (w[2] - w[3], w[0].anchor, w[1].anchor), reverse=True)
    return worst, witnesses


ENUMERATED = [
    (SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5),
    (SchemeSpec(RSJ, 5, 2, shift="none"), 5),
    (SchemeSpec(RSJ, 5, 2, generator=(1, 2), jitter=False), 5),
    (SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 10),
    (SchemeSpec(RSJ, 3, 2, generator=(1, 2), shift="none"), 6),
    (SchemeSpec(RSJ, 5, 3, shift="none"), 5),
]


def _spec_id(spec):
    return (f"{spec.kind}({spec.n},{spec.dim})-g={spec.generator}-shift={spec.shift}"
            f"-jitter={spec.jitter}")


@pytest.mark.parametrize("spec,m", ENUMERATED, ids=[f"{_spec_id(s)}-M={m}" for s, m in ENUMERATED])
def test_scan_matches_fraction_oracle(spec, m):
    worst, witnesses = oracle_scan(spec, m)
    rep = nuod_scan(spec, m)
    assert rep.worst_violation == worst
    assert list(rep.witnesses) == witnesses


def _anchors(rnd, n, dim):
    # cell corners, midpoints and off-grid thirds
    return tuple(F(rnd.randrange(3 * n), 3 * n) for _ in range(dim))


# the enumerated laws (one count factor), then laws of one factor per coordinate
QUERIED = [s for s, _ in ENUMERATED] + [
    SchemeSpec(RSJ, 7, 3, generator=(1, 2, 3)),
    SchemeSpec(RSJ, 7, 2, shift="none", jitter=False),
    full_rsj(5, 2), full_rsj(3, 3), lhs_spec(4, 3), patterson_spec(5, 2), stratified_spec(7),
]


@pytest.mark.parametrize("spec", QUERIED, ids=[_spec_id(s) for s in QUERIED])
def test_box_probs_match_fraction_oracle(spec):
    rnd = random.Random(str(spec))
    law = law_of(spec)
    for _ in range(6):
        Q = AnchoredBox(_anchors(rnd, spec.n, spec.dim))
        R = AnchoredBox(_anchors(rnd, spec.n, spec.dim))
        assert pair_box_prob(spec, Q, R) == oracle_box_prob(law, Q, R)
        assert pair_marginal_prob(spec, Q, 0) == oracle_marginal_prob(law, Q, 0)
        assert pair_marginal_prob(spec, R, 1) == oracle_marginal_prob(law, R, 1)


def test_huge_denominators_stay_exact():
    # anchor denominators push the common denominator past int64, over one
    # count factor (both coordinates) and over one factor per coordinate
    Q = AnchoredBox((F(2**33, 2**35 + 1), F(3, 7)))
    R = AnchoredBox((F(3**20, 3**21 + 2), F(2**31 - 1, 2**33 + 3)))
    for spec in (SchemeSpec(RSJ, 5, 2, generator=(1, 2)), lhs_spec(5, 2)):
        law = law_of(spec)
        assert pair_box_prob(spec, Q, R) == oracle_box_prob(law, Q, R)
        assert pair_marginal_prob(spec, R, 1) == oracle_marginal_prob(law, R, 1)
    # the torus class sum in python ints: its denominator (n - 1) prod |gammas| D_i
    # is past int64, with D_i = lcm(n, anchor denominators)
    for gen in ("random", (1, 2)):
        spec = SchemeSpec(RSJ, 5, 2, generator=gen, shift="continuous_torus", jitter=False)
        assert pair_box_prob(spec, Q, R) == oracle_torus_box_prob(spec, Q, R)


@pytest.mark.parametrize("position", ["jitter", "corner", "midpoint"])
def test_weight_table_matches_fraction_weights(position):
    rnd = random.Random(position)
    for _ in range(300):
        n = rnd.choice([1, 2, 3, 5, 7, 12, 31])
        dens = [rnd.choice([1, 2, 2 * n, 3 * n, 7, 3**rnd.randrange(31), 2**rnd.randrange(40) + 1])
                for _ in range(rnd.randrange(1, 6))]
        # anchors in [0, 1], cell corners and midpoints included
        anchors = [F(rnd.randrange(d + 1), d) for d in dens] + [F(0), F(1), F(1, 2 * n)]
        table, den = _weight_table(anchors, n, position)
        want = [[_cell_weight(c, a, n, position) * den for a in anchors] for c in range(n)]
        assert table.tolist() == want
        # exact integers: int64, or python ints past the int64-safe range
        assert table.dtype == np.int64 or all(type(v) is int for v in table.flat)


# -- a scan at M = n decides every cell law -----------------------------------

# the cell laws that do not factor per coordinate: fixed generators, no shift
UNFACTORED = [
    SchemeSpec(RSJ, 5, 2, generator=(1, 2)),
    SchemeSpec(RSJ, 5, 2, generator=(1, 2), jitter=False),
    SchemeSpec(RSJ, 5, 2, generator=(1, 1)),
    SchemeSpec(RSJ, 7, 2, generator=(1, 3)),
    SchemeSpec(RSJ, 3, 3, generator=(1, 2, 1)),
    SchemeSpec(RSJ, 5, 2, shift="none"),
    SchemeSpec(RSJ, 5, 2, shift="none", jitter=False),
    SchemeSpec(RSJ, 3, 2, shift="none"),
]


@pytest.mark.parametrize("spec", UNFACTORED, ids=[_spec_id(s) for s in UNFACTORED])
def test_scan_at_multiples_of_n_keeps_the_worst(spec):
    worst = nuod_scan(spec, spec.n).worst_violation
    for k in (2, 3):
        assert nuod_scan(spec, k * spec.n).worst_violation == worst


# cell corners, a fixed generator with jitter, and two unshifted laws
OFF_GRID = UNFACTORED[1::2]


@pytest.mark.parametrize("spec", OFF_GRID, ids=[_spec_id(s) for s in OFF_GRID])
def test_off_grid_anchors_never_exceed_the_grid_worst(spec):
    # random anchors with denominators up to 60, weighed by the Fraction oracle
    worst = nuod_scan(spec, spec.n).worst_violation
    law = law_of(spec)
    rnd = random.Random(_spec_id(spec))
    for _ in range(40):
        Q, R = (AnchoredBox(tuple(F(rnd.randrange(d), d) for d in
                                  (rnd.randrange(2, 61) for _ in range(spec.dim))))
                for _ in range(2))
        gap = oracle_box_prob(law, Q, R) - oracle_marginal_prob(law, Q, 0) * oracle_marginal_prob(law, R, 1)
        assert gap <= worst


def test_grid_off_multiples_of_n_misses_violations():
    # the M = 5 grid reports rsj(7,2) g=(1,3) clean; the M = 7 grid does not
    spec = SchemeSpec(RSJ, 7, 2, generator=(1, 3))
    coarse, fine = nuod_scan(spec, 5), nuod_scan(spec, 7)
    assert coarse.ok and coarse.witnesses == ()
    assert not fine.ok and len(fine.witnesses) == 38
    assert fine.worst_violation == F(16, 7203)


def scan_blocks(spec, m, dense=False, counts=None):
    """(den, blocks) of an expansion over every box pair of the k/m grid.

    Without dense, _scan's own tables: a factorized law's closed-form
    table, every other law's index-pair classes.  With dense, the dense
    oracle: the contraction of the cell-pair law counts (P, total), by
    default _pair_counts's, built here (dense_contraction).  Its rows are
    multiplied in float64 (BLAS): exact, as every partial sum is a
    nonnegative integer at most den_joint < 2^53.
    """
    if not dense:
        den, *tables = _class_tables(spec, _law(spec), m)
        return den, _expand(*tables)
    A, PA, p1, p2, den_joint, den_marginal = dense_contraction(spec, m, counts)
    den = den_marginal**2
    assert den_joint < 2**53 and den < 2**62
    A, PA, scale = A.astype(np.float64), PA.astype(np.float64), den // den_joint
    return den, _expand(lambda start, stop: scale * (A[:, start:stop].T @ PA).astype(np.int64), p1, p2)


def scan_pairs_rows(spec, m, dense=False, counts=None):
    """One (Q, R, joint, product, violation) row per box pair of the k/m grid.

    Read one Fraction at a time from the expanded tables (scan_blocks), in
    lexicographic box order.
    """
    anchors = _grid_anchors(m)
    den, blocks = scan_blocks(spec, m, dense, counts)
    boxes = [AnchoredBox(a) for a in product(anchors, repeat=spec.dim)]
    for start, joint, prodv in blocks:
        for Q, jrow, prow in zip(boxes[start:], joint.tolist(), prodv.tolist()):
            for R, j, p in zip(boxes, jrow, prow):
                yield Q, R, F(j, den), F(p, den), j > p


def scan_csv(spec, m, budget=10**8):
    """_scan with its pairs CSV written to a StringIO: (report, CSV text)."""
    out = io.StringIO()
    return _scan(spec, m, budget, csv_out=out), out.getvalue()


def test_pairs_rows_match_fraction_oracle():
    spec, m = SchemeSpec(RSJ, 5, 2, generator=(1, 2), jitter=False), 5
    law = law_of(spec)
    rows = list(scan_pairs_rows(spec, m))
    assert len(rows) == m ** (2 * spec.dim)
    for Q, R, joint, prodv, bad in rows:
        assert joint == oracle_box_prob(law, Q, R)
        assert prodv == oracle_marginal_prob(law, Q, 0) * oracle_marginal_prob(law, R, 1)
        assert bad == (joint > prodv)


def _table(tables):
    den, blocks = tables
    out = []
    for _, joint, prod in blocks:
        out += [(F(int(j), den), F(int(p), den))
                for jrow, prow in zip(joint, prod) for j, p in zip(jrow, prow)]
    return out


def oracle_factor_tables(spec, anchors):
    """The per-coordinate closed forms as (joint, product, den) integer tables.

    Entry [k][l] of the joint table is the pair factor at (anchors[k],
    anchors[l]); the product table holds the product of the two marginal
    factors.
    """
    if spec.kind == "patterson":
        def joint_factor(q, r):
            return patterson_pair_factor(q, r, spec.n)

        def marginal_factor(q):
            return patterson_marginal_factor(q, spec.n)
    else:
        def joint_factor(q, r):
            return stratified_pair_box_prob(q, r, spec.n)

        def marginal_factor(q):
            return 1 - F(q)
    joint = [[joint_factor(q, r) for r in anchors] for q in anchors]
    marg = [marginal_factor(q) for q in anchors]
    dens = [f.denominator for row in joint for f in row]
    dens += [(a * b).denominator for a in marg for b in marg]
    den = lcm(*dens)
    jt = [[int(f * den) for f in row] for row in joint]
    pt = [[int(a * b * den) for b in marg] for a in marg]
    return jt, pt, den


ONE_COORDINATE = [(spec, m) for n in range(2, 10) for m in (n, 2 * n, 3 * n + 1)
                  for spec in (lhs_spec(n, 1), stratified_spec(n), patterson_spec(n, 1))]


@pytest.mark.parametrize("spec,m", ONE_COORDINATE,
                         ids=[f"{s.kind}({s.n})-M={m}" for s, m in ONE_COORDINATE])
def test_one_coordinate_tables_match_closed_form(spec, m):
    # jitter weights (lhs, stratified) and midpoint weights (patterson)
    # against stratified_pair_box_prob and patterson_pair_factor, every (q, r)
    anchors = _grid_anchors(m)
    jt, pt, den = oracle_factor_tables(spec, anchors)
    want = [(F(j, den), F(p, den)) for jrow, prow in zip(jt, pt) for j, p in zip(jrow, prow)]
    assert _table(scan_blocks(spec, m)) == want


@pytest.mark.parametrize("spec", [full_rsj(3, 2), lhs_spec(4, 2)])
def test_enumeration_method_matches_closed_form(spec):
    anchors = [F(k, 3 * spec.n) for k in range(0, 3 * spec.n, 2)]
    for qa in product(anchors, repeat=spec.dim):
        R = AnchoredBox((F(1, 3),) + qa[1:])
        Q = AnchoredBox(qa)
        assert (pair_box_prob(spec, Q, R, method="enumeration")
                == pair_box_prob(spec, Q, R, method="closed_form"))


def test_enumeration_method_builds_the_law(monkeypatch):
    # the one _pair_counts factor, also where the law has one factor per coordinate
    spec = full_rsj(3, 2)
    Q, R = AnchoredBox((F(1, 3), F(1, 2))), AnchoredBox((F(2, 9), F(0)))
    calls = []
    monkeypatch.setattr(mod, "_pair_counts", lambda *a: calls.append(a) or _pair_counts(*a))
    assert pair_box_prob(spec, Q, R, method="enumeration") == pair_box_prob(spec, Q, R)
    assert len(calls) == 1


def test_budget_counts_lag_classes(tmp_path, capsys):
    # a fixed generator under a grid shift: n^2 M^2 for the n lag tables,
    # (n - 1) B^2 for the n - 1 classes' Kronecker terms (B = M^dim boxes),
    # and one comparison per box pair; a refused pairs CSV leaves no file
    spec, m = SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5
    work = 5**2 * 5**2 + 4 * 5**4 + 5**4
    for call in (lambda b: nuod_scan(spec, m, budget=b), lambda b: scan_csv(spec, m, b)[0]):
        with pytest.raises(mod.BudgetExceededError, match=f"grid scan too large: {work} multiply-adds"):
            call(work - 1)
        assert call(work).worst_violation == F(1, 625)
    pairs = tmp_path / "pairs.csv"
    argv = ["analyze", "nuod", "--scheme", "rsj", "--n", "5", "--dim", "2", "--generator", "1,2",
            "--grid", "5", "--pairs-csv", str(pairs)]
    assert cli.main([*argv, "--budget", str(work - 1)]) == 3
    assert f"{work} multiply-adds exceeds budget {work - 1}" in capsys.readouterr().err
    assert not pairs.exists()
    assert cli.main([*argv, "--budget", str(work)]) == 1
    assert pairs.read_text(encoding="utf-8") == scan_csv(spec, m)[1]


def test_budget_refuses_before_the_anchors_are_built(monkeypatch):
    # M = 10^9 Fractions would take minutes and gigabytes: the charge comes first
    def build(m):
        raise AssertionError(f"built {m} anchors")

    monkeypatch.setattr(mod, "_grid_anchors", build)
    for spec in (lhs_spec(3, 2), SchemeSpec(RSJ, 5, 2, generator=(1, 2))):
        with pytest.raises(mod.BudgetExceededError, match="multiply-adds"):
            nuod_scan(spec, 10**9)
        with pytest.raises(mod.BudgetExceededError):
            scan_csv(spec, 10**9)
    for m in (0, -3):
        with pytest.raises(ValueError, match="grid resolution"):
            nuod_scan(lhs_spec(3, 2), m)


def test_budget_counts_factorized_work():
    # one closed-form table for every coordinate: nuod_scan evaluates its
    # 6^2 + 2 x 6 entries and compares the 6^2 joints with their products;
    # the pairs table evaluates it and expands all 6^4 box pairs
    spec, m = lhs_spec(3, 2), 6
    work = 36 + 12 + 36
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    assert nuod_scan(spec, m, budget=work).ok
    work = 36 + 12 + 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        scan_csv(spec, m, work - 1)
    assert scan_csv(spec, m, work)[1].count("\n") == 1 + 6**4


def report_from_witnesses(spec, m, witnesses):
    """The report of a k/m scan that found these witnesses, given in any order.

    Report order is decreasing excess, ties broken by decreasing anchors;
    _scan ranks its own witnesses so on integers.
    """
    witnesses = sorted(witnesses, key=lambda w: (w[2] - w[3], w[0].anchor, w[1].anchor),
                       reverse=True)
    return DependenceReport._ranked(spec, m, witnesses)


def expanded_report(spec, m, dense=False, counts=None):
    """nuod_scan's report from the expansion over every box pair (scan_blocks)."""
    anchors = _grid_anchors(m)
    den, blocks = scan_blocks(spec, m, dense, counts)
    boxes = [AnchoredBox(a) for a in product(anchors, repeat=spec.dim)]
    witnesses = [(boxes[start + q], boxes[r], F(int(joint[q, r]), den), F(int(prodv[q, r]), den))
                 for start, joint, prodv in blocks for q, r in zip(*np.nonzero(joint > prodv))]
    return report_from_witnesses(spec, m, witnesses)


# the criterion-3 scans, then the factorized scans of the exact-scan benchmark
CERTIFIED = [(spec, 2 * n) for n in (2, 3, 5, 7) for d in (1, 2, 3)
             for spec in (full_rsj(n, d), lhs_spec(n, d))]
CERTIFIED += [(lhs_spec(5, 3), 20), (patterson_spec(7, 2), 28), (full_rsj(11, 2), 44),
              (stratified_spec(13), 52)]


@pytest.mark.parametrize("spec,m", CERTIFIED,
                         ids=[f"{s.kind}({s.n},{s.dim})-M={m}" for s, m in CERTIFIED])
def test_certificate_matches_expansion(spec, m):
    # the whole report, grid included
    assert nuod_scan(spec, m) == expanded_report(spec, m)


def test_certificate_reaches_past_the_expansion():
    # 2.2e14 and 1e12 box pairs, far past any budget for the expansion
    for spec, m in ((full_rsj(31, 4), 62), (full_rsj(5, 6), 10)):
        rep = nuod_scan(spec, m)
        assert rep.ok and rep.witnesses == () and rep.grid["certifies_all_boxes"]
        assert rep.grid["pairs"] == m ** (2 * spec.dim)


# a random generator under a grid shift, jitter off: ordered distinct cells
# in each coordinate, read through corner weights
JITTERLESS = [SchemeSpec(RSJ, 5, 2, jitter=False), SchemeSpec(RSJ, 7, 3, jitter=False)]


@pytest.mark.parametrize("spec", JITTERLESS, ids=[_spec_id(s) for s in JITTERLESS])
def test_jitterless_random_generator_law_is_factorized(spec):
    n = spec.n
    assert _law(spec, cells=True).factorized
    rnd = random.Random(str(spec))
    boxes = [(AnchoredBox(_anchors(rnd, n, spec.dim)), AnchoredBox(_anchors(rnd, n, spec.dim)))
             for _ in range(4)]
    for Q, R in boxes:
        # the step route reads corner weights too
        enumerated = pair_box_prob(spec, Q, R, method="enumeration")
        assert pair_box_prob(spec, Q, R) == pair_box_prob(spec, Q, R, method="closed_form") == enumerated
    # the Fraction oracle takes seconds at (7, 3): one box pair
    law, (Q, R) = law_of(spec), boxes[0]
    assert _pair_query(spec, Q, R) == (oracle_box_prob(law, Q, R), oracle_marginal_prob(law, Q, 0),
                                       oracle_marginal_prob(law, R, 1))


@pytest.mark.parametrize("m", [5, 10, 11])
def test_jitterless_random_generator_certificate(m):
    # corner weights are constant on each (j/n, (j+1)/n], so M % n == 0 certifies
    spec = JITTERLESS[0]
    rep = nuod_scan(spec, m)
    assert rep == expanded_report(spec, m) == expanded_report(spec, m, dense=True)
    assert rep.ok and rep.grid["certifies_all_boxes"] == (m % spec.n == 0)


def dense_contraction(spec, m, counts=None):
    """The dense one-factor contraction over the k/m grid, built here: (A, P A, p1, p2, den_joint, den_marginal).

    counts is the cell-pair law (P, total), by default _pair_counts's.  A is
    the Kronecker power of the grid's weight table over every coordinate;
    box pair (Q, R) has joint A[:, Q]^T (P A)[:, R] / den_joint and
    marginals p1[Q] / den_marginal and p2[R] / den_marginal.
    """
    P, total = counts if counts is not None else _pair_counts(spec)
    T, den = _weight_table(_grid_anchors(m), spec.n, _law(spec).position)
    A = T
    for _ in range(spec.dim - 1):
        A = np.kron(A, T)
    den_marginal = total * den**spec.dim
    return A, P @ A, P.sum(axis=1) @ A, P.sum(axis=0) @ A, den_marginal * den**spec.dim, den_marginal


def _same_rationals(a, den_a, b, den_b):
    """Whether integer arrays a / den_a and b / den_b are equal entrywise, in int64."""
    g = gcd(den_a, den_b)
    assert den_a // g * den_b < 2**62
    return np.array_equal(a * (den_b // g), b * (den_a // g))


# the scans of the earlier one-factor comparison, then every certified, one-coordinate and
# jitterless scan
CLOSED_FORM = [(full_rsj(3, 2), 6), (lhs_spec(4, 2), 8), (full_rsj(3, 3), 3),
               (patterson_spec(3, 2), 6), (stratified_spec(5), 10)]
CLOSED_FORM += CERTIFIED + ONE_COORDINATE + [(s, m) for s in JITTERLESS for m in (s.n, 2 * s.n + 1)]


@pytest.mark.parametrize("spec,m", CLOSED_FORM)
def test_enumerated_route_matches_closed_form(spec, m, monkeypatch):
    # the closed-form table's expansion against the dense _pair_counts
    # contraction, over every box pair, joint and product alike.  The dense
    # rows are multiplied in float64 (BLAS): exact, as every partial sum is
    # a nonnegative integer at most den_joint < 2^53
    monkeypatch.setattr(mod, "_BLOCK", 1 << 20)
    A, PA, p1, p2, den_joint, den_marginal = dense_contraction(spec, m)
    assert den_joint < 2**53
    A, PA = A.astype(np.float64), PA.astype(np.float64)
    den, blocks = scan_blocks(spec, m)
    for start, joint, prodv in blocks:
        stop = start + len(joint)
        dense = (A[:, start:stop].T @ PA).astype(np.int64)
        assert _same_rationals(joint, den, dense, den_joint)
        assert _same_rationals(prodv, den, np.multiply.outer(p1[start:stop], p2), den_marginal**2)


# both points in one cell: positively dependent, so it fails the certificate
def _same_cell(step_terms):
    def terms(n, position, q, r):
        # the diagonal sum_c a[c] b[c] over n den_a den_b is (n - 1) diag over
        # 1 - I's denominators; the marginals are those of 1 - I
        joint, p1, p2, *dens = step_terms(n, position, q, r)
        return (p1 * p2 // (n - 1) - (n - 1) * joint, p1, p2, *dens)
    return terms


def same_cell_report(spec, m):
    """The report of the k/m scan of the same-cell law, from Fraction weights."""
    n, position = spec.n, _law(spec).position
    anchors = _grid_anchors(m)
    weights = [[_cell_weight(c, a, n, position) for c in range(n)] for a in anchors]
    joint = [[sum(wq * wr for wq, wr in zip(weights[k], weights[l])) / n for l in range(m)]
             for k in range(m)]
    marginal = [sum(weights[k]) / n for k in range(m)]
    witnesses = []
    for qk in product(range(m), repeat=spec.dim):
        for rk in product(range(m), repeat=spec.dim):
            j = prod(joint[k][l] for k, l in zip(qk, rk))
            p = prod(marginal[k] for k in qk) * prod(marginal[l] for l in rk)
            if j > p:
                witnesses.append((AnchoredBox(tuple(anchors[k] for k in qk)),
                                  AnchoredBox(tuple(anchors[l] for l in rk)), j, p))
    return report_from_witnesses(spec, m, witnesses)


FAILING = [(lhs_spec(3, 2), 6), (lhs_spec(3, 2), 5), (lhs_spec(3, 3), 4), (patterson_spec(3, 3), 3)]


@pytest.mark.parametrize("spec,m", FAILING, ids=[f"{s.kind}(3,{s.dim})-{i}"
                                                 for i, (s, _) in enumerate(FAILING)])
def test_failing_certificate_falls_back_to_expansion(spec, m, monkeypatch):
    monkeypatch.setattr(mod, "_step_terms", _same_cell(mod._step_terms))
    joint, p1, p2, _ = _step_table(spec.n, _law(spec).position, m)
    assert not (joint <= np.multiply.outer(p1, p2)).all()
    fallback = nuod_scan(spec, m)
    assert fallback == expanded_report(spec, m) == same_cell_report(spec, m)
    assert fallback.witnesses


# p1 in a lower cell than p2: an asymmetric count factor, so the two
# marginals differ (the law of every scheme is exchangeable)
LOWER = np.triu(np.ones((3, 3), dtype=np.int64), 1)
DISTINCT = 1 - np.eye(3, dtype=np.int64)


@pytest.mark.parametrize("P", [np.kron(LOWER, DISTINCT), np.kron(DISTINCT, LOWER),
                               np.kron(LOWER, LOWER), np.kron(LOWER, DISTINCT).T],
                         # the last: p1 in a higher first-coordinate cell
                         ids=["lower-distinct", "distinct-lower", "lower-lower", "one-factor"])
def test_queries_keep_the_sides_of_the_law(P, monkeypatch):
    # joint and both marginals of an asymmetric law against Fraction sums:
    # single box queries, which contract the law as one _pair_counts factor
    # on a fixed-generator spec, then the dense scan oracle's every box
    # pair, report and pairs CSV.  No scan reads _pair_counts: the lag
    # tables keep the sides by their orientation, pinned last
    total = int(P.sum())
    monkeypatch.setattr(mod, "_pair_counts", lambda spec, budget: (P, total))
    spec, m = SchemeSpec(RSJ, 3, 2, generator=(1, 2)), 4
    cells = list(product(range(3), repeat=2))
    law = [(z1, z2, F(int(P[i, j]), total))
           for i, z1 in enumerate(cells) for j, z2 in enumerate(cells) if P[i, j]]

    def weight(z, box):
        return prod(_cell_weight(c, q, 3, "jitter") for c, q in zip(z, box.anchor))

    def joint(Q, R):
        return sum((p * weight(z1, Q) * weight(z2, R) for z1, z2, p in law), F(0))

    def marginal(box, side):
        return sum((p * weight((z1, z2)[side], box) for z1, z2, p in law), F(0))

    rnd = random.Random(3)
    for _ in range(6):
        Q, R = (AnchoredBox(_anchors(rnd, 3, 2)) for _ in range(2))
        j, m1, m2 = joint(Q, R), marginal(Q, 0), marginal(R, 1)
        assert _pair_query(spec, Q, R) == (j, m1, m2)
        assert pair_box_prob(spec, Q, R) == j
        assert (pair_marginal_prob(spec, Q, 0), pair_marginal_prob(spec, R, 1)) == (m1, m2)

    boxes = [AnchoredBox(a) for a in product(_grid_anchors(m), repeat=2)]
    labels = [";".join(format_rational(a) for a in box.anchor) for box in boxes]
    m1s, m2s = [marginal(b, 0) for b in boxes], [marginal(b, 1) for b in boxes]
    assert m1s != m2s
    rows, witnesses = ["Q,R,joint,product,violation\n"], []
    for Q, q, m1 in zip(boxes, labels, m1s):
        for R, r, m2 in zip(boxes, labels, m2s):
            j = joint(Q, R)
            rows.append(f"{q},{r},{format_rational(j)},{format_rational(m1 * m2)},{j > m1 * m2}\n")
            if j > m1 * m2:
                witnesses.append((Q, R, j, m1 * m2))
    report, text = oracle_pairs_csv(spec, m, dense=True, counts=(P, total))
    assert text == "".join(rows)
    assert report == report_from_witnesses(spec, m, witnesses) == expanded_report(spec, m, True, (P, total))

    # L[e][k, l]: box k's weight at p1's cell c, box l's at p2's cell c + e
    e, anchors = 1, _grid_anchors(m)
    T, den = _weight_table(anchors, 3, "jitter")
    lag = _lag_tables(T, T)[e].tolist()
    assert lag == [[sum(_cell_weight(c, q, 3, "jitter") * _cell_weight((c + e) % 3, r, 3, "jitter")
                        for c in range(3)) * den**2 for r in anchors] for q in anchors]
    assert lag != np.transpose(lag).tolist()


def test_budget_counts_failing_certificate_expansion(monkeypatch):
    # the table and its comparisons, 6^2 + 2 x 6 + 6^2, are checked first;
    # the expansion's 6^4 box pairs on top before it runs
    monkeypatch.setattr(mod, "_step_terms", _same_cell(mod._step_terms))
    spec, m = FAILING[0]
    work = 36 + 12 + 36
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    work += 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    assert nuod_scan(spec, m, budget=work) == nuod_scan(spec, m)


def test_block_size_does_not_change_results(monkeypatch):
    # many small blocks, split inside a row group, and blocks spanning
    # several groups of last-factor rows: the same reports and rows.  The
    # shift-none scans and queries split their ratio tables and their class
    # sums, the torus queries their lags
    cases = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 5), (full_rsj(3, 2), 6), (lhs_spec(3, 3), 3),
             (lhs_spec(3, 3), 4), (patterson_spec(3, 2), 4), (SchemeSpec(RSJ, 5, 2, shift="none"), 5),
             (SchemeSpec(RSJ, 7, 1, shift="none"), 7), (SchemeSpec(RSJ, 3, 3, shift="none"), 2)]
    Q, R = AnchoredBox((F(2, 13), F(5, 26))), AnchoredBox((F(7, 13), F(1, 2)))
    queries = [SchemeSpec(RSJ, 13, 2, shift="none"), SchemeSpec(RSJ, 13, 2, shift="none", jitter=False),
               SchemeSpec(RSJ, 13, 2, generator=(1, 5), shift="continuous_torus", jitter=False),
               SchemeSpec(RSJ, 13, 2, shift="continuous_torus", jitter=False)]

    def results():
        return ([(nuod_scan(s, m), scan_csv(s, m, 10**8)) for s, m in cases],
                [_pair_query(s, Q, R) for s in queries])

    whole = results()
    for block in (7, 5 * 27):
        monkeypatch.setattr(mod, "_BLOCK", block)
        assert results() == whole
    assert not whole[0][0][0].ok
    assert all(_pair_query(s, Q, R, "enumeration") == want
               for s, want in zip(queries[:2], whole[1]))
    assert [j for j, *_ in whole[1][2:]] == [oracle_torus_box_prob(s, Q, R) for s in queries[2:]]


# tie-heavy scans: over five witnesses per distinct excess
TIES = [(SchemeSpec(RSJ, 7, 2, generator=(1, 1)), 14), (SchemeSpec(RSJ, 5, 2, shift="none"), 20)]


@pytest.mark.parametrize("limit", [mod._INT64_SAFE_LIMIT, 1], ids=["int64", "python-int"])
def test_scan_ranking_matches_fraction_sort(limit, monkeypatch):
    # _scan ranks integer numerators and box indices; report_from_witnesses
    # sorts Fraction excesses and anchors, from any order
    monkeypatch.setattr(mod, "_INT64_SAFE_LIMIT", limit)
    for spec, m in TIES:
        report = nuod_scan(spec, m)
        witnesses = list(report.witnesses)
        assert len({j - p for _, _, j, p in witnesses}) * 5 < len(witnesses)
        random.Random(m).shuffle(witnesses)
        assert report == report_from_witnesses(spec, m, witnesses)


def test_scan_builds_each_witness_box_once(monkeypatch):
    built = []

    class CountingBox(AnchoredBox):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.anchor)

    monkeypatch.setattr(mod, "AnchoredBox", CountingBox)
    report = nuod_scan(*TIES[0])
    boxes = [box for w in report.witnesses for box in w[:2]]
    assert len(built) == len(set(built)) == len({box.anchor for box in boxes}) < len(boxes)
    # a box, and a probability, shared by two witnesses is one object
    for values in (boxes, [v for w in report.witnesses for v in w[2:]]):
        assert len({id(v) for v in values}) == len(set(values))


def test_report_json_formats_every_witness():
    report = nuod_scan(*TIES[0])
    want = {"scheme": spec_to_dict(report.spec), "grid": report.grid,
            "worst_violation": format_rational(report.worst_violation),
            "violations": [{"Q": [format_rational(a) for a in Q.anchor],
                            "R": [format_rational(a) for a in R.anchor],
                            "joint": format_rational(joint), "product": format_rational(prodv)}
                           for Q, R, joint, prodv in report.witnesses]}
    assert report_to_json_dict(report) == want


# -- the pairs table in bulk ---------------------------------------------------


def oracle_pairs_csv(spec, m, dense=False, counts=None):
    """The report of the pairs table's witnesses, and the table as the CLI wrote it row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Q", "R", "joint", "product", "violation"])
    witnesses = []
    for Q, R, joint, prodv, bad in scan_pairs_rows(spec, m, dense, counts):
        writer.writerow([";".join(format_rational(a) for a in Q.anchor),
                         ";".join(format_rational(a) for a in R.anchor),
                         format_rational(joint), format_rational(prodv), bad])
        if bad:
            witnesses.append((Q, R, joint, prodv))
    return report_from_witnesses(spec, m, witnesses), buf.getvalue()


# the criterion-3 scans with at most 1e5 box pairs, the pairs-CSV scans of the
# exact-scan benchmark, and a lattice with witnesses
PAIRS_CSV = [(spec, m) for spec, m in CERTIFIED[:24] if m ** (2 * spec.dim) <= 10**5]
PAIRS_CSV += [(SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5), (lhs_spec(4, 2), 8),
              (SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 10)]


@pytest.mark.parametrize("spec,m", PAIRS_CSV, ids=[f"{_spec_id(s)}-M={m}" for s, m in PAIRS_CSV])
def test_pairs_csv_matches_row_oracle(spec, m):
    got, want = scan_csv(spec, m, 10**8), oracle_pairs_csv(spec, m)
    assert_same_pairs_csv(got, want)
    assert got[0] == nuod_scan(spec, m)


def assert_same_pairs_csv(got, want):
    # lines, not whole texts: pytest's diff of two long unequal texts is very slow
    assert got[1].splitlines(keepends=True) == want[1].splitlines(keepends=True)
    assert got[0] == want[0]


def test_pairs_csv_python_int_path_and_blocks(monkeypatch):
    # every table in python ints, and blocks that split the rows of a Q box
    cases = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 10), (lhs_spec(4, 2), 8),
             (patterson_spec(3, 3), 5), (SchemeSpec(RSJ, 7, 2, shift="none", jitter=False), 7)]
    want = [oracle_pairs_csv(s, m) for s, m in cases]
    assert want[0][0].witnesses and want[3][0].witnesses
    monkeypatch.setattr(mod, "_INT64_SAFE_LIMIT", 1)
    _, blocks = scan_blocks(cases[0][0], 10)
    assert next(blocks)[1].dtype == object
    for block in (1 << 15, 7):
        monkeypatch.setattr(mod, "_BLOCK", block)
        for (s, m), w in zip(cases, want):
            assert_same_pairs_csv(scan_csv(s, m, 10**8), w)


def test_pairs_csv_budget_matches_rows():
    spec, m = lhs_spec(3, 2), 6
    work = 36 + 12 + 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        scan_csv(spec, m, work - 1)
    assert_same_pairs_csv(scan_csv(spec, m, work), oracle_pairs_csv(spec, m))


def test_pairs_csv_streams_by_block(monkeypatch):
    # the rows go out one write per block: the traced peak is a few blocks'
    # text (about 6x the largest write here), never the 1.5 MB table
    class Sink:
        size = largest = writes = 0

        def write(self, text):
            self.size += len(text)
            self.largest = max(self.largest, len(text))
            self.writes += 1

    spec, m = full_rsj(7, 2), 14
    monkeypatch.setattr(mod, "_BLOCK", 1 << 10)
    sink = Sink()
    tracemalloc.start()
    try:
        report = _scan(spec, m, 10**8, csv_out=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == nuod_scan(spec, m)
    # the header, then blocks of 1024 // 196 = 5 Q boxes of 196 rows each
    assert sink.writes == 1 + 40
    assert peak <= 10 * sink.largest and peak * 4 <= sink.size, (peak, sink.largest, sink.size)


# -- the lattice law from index-pair classes ----------------------------------


def oracle_pair_counts(spec):
    """(P, total) by one bincount per ordered index pair over all (g, s) rows.

    For lhs, stratified and patterson: the Kronecker power of the table of
    ordered pairs of distinct strata.
    """
    n, dim = spec.n, spec.dim
    if spec.kind != RSJ:
        P = np.ones((1, 1), dtype=np.int64)
        for _ in range(dim):
            P = np.kron(P, 1 - np.eye(n, dtype=np.int64))
        return P, int(P.sum())
    if spec.generator == "random":
        gens = np.array(list(product(range(1, n), repeat=dim)), dtype=np.int64)
    else:
        gens = np.array([spec.generator], dtype=np.int64)
    if spec.shift == "grid":
        shifts = np.array(list(product(range(n), repeat=dim)), dtype=np.int64)
    else:
        shifts = np.zeros((1, dim), dtype=np.int64)
    g_rows = np.repeat(gens, len(shifts), axis=0)
    s_rows = np.tile(shifts, (len(gens), 1))
    cells = n**dim
    place = n ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(cells * cells, dtype=np.int64)
    for a in range(n):
        for b in range(n):
            if a != b:
                z1 = (g_rows * a + s_rows) % n
                z2 = (g_rows * b + s_rows) % n
                counts += np.bincount((z1 @ place) * cells + z2 @ place, minlength=cells * cells)
    terms = len(g_rows) * n * (n - 1)
    g = gcd(int(np.gcd.reduce(counts)), terms)
    return counts.reshape(cells, cells) // g, terms // g


def _lattice_specs():
    specs = []
    for n in (2, 3, 5, 7):
        for dim in (1, 2, 3):
            mixed = tuple(1 + (3 * i + 1) % (n - 1) for i in range(dim))
            for gen in dict.fromkeys(("random", (1,) * dim, mixed)):
                for shift in ("grid", "none"):
                    specs.append(SchemeSpec(RSJ, n, dim, generator=gen, shift=shift))
    return specs + [lhs_spec(n, dim) for n in (2, 5) for dim in (1, 3)] + [
        patterson_spec(4, 2), stratified_spec(6)]


LATTICE = _lattice_specs()


@pytest.mark.parametrize("spec", LATTICE, ids=[_spec_id(s) for s in LATTICE])
def test_pair_counts_match_index_pair_enumerator(spec):
    P, total = _pair_counts(spec)
    P_ref, total_ref = oracle_pair_counts(spec)
    assert total == total_ref
    assert P.dtype == P_ref.dtype and np.array_equal(P, P_ref)


def test_pair_counts_budget_counts_terms():
    # the enumerated codes, classes x prod |G_i|, plus the n^(2 dim) entries
    # of P: n - 1 difference classes under a grid shift, n (n - 1) ordered
    # pairs without one, one class of (n - 1)^dim codes for a factorized law
    # (the latin kinds, and a random generator under a grid shift)
    for spec, work in ((full_rsj(5, 2), 4**2 + 5**4),
                       (SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 4 + 5**4),
                       (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 20 + 5**4),
                       (SchemeSpec(RSJ, 5, 2, shift="none"), 20 * 4**2 + 5**4),
                       (lhs_spec(4, 2), 3**2 + 4**4),
                       (patterson_spec(4, 2), 3**2 + 4**4)):
        with pytest.raises(mod.BudgetExceededError, match=f"{work} terms"):
            _pair_counts(spec, budget=work - 1)
        _pair_counts(spec, budget=work)


@pytest.mark.parametrize("gather", [True, False])
def test_random_generator_lattice_is_the_latin_class(gather):
    # a random generator under a grid shift has lhs's law, enumerated as its one class
    for n, dim in ((2, 1), (3, 2), (5, 3), (7, 2), (11, 2), (7, 3)):
        counts, total = _pair_counts(full_rsj(n, dim), gather=gather)
        lhs_counts, lhs_total = _pair_counts(lhs_spec(n, dim), gather=gather)
        assert total == lhs_total and np.array_equal(counts, lhs_counts)


@pytest.mark.parametrize("shift", ["grid", "none"])
def test_pair_counts_refuses_before_building_generators(shift):
    # the budget is charged before the (n - 1)-entry generator array (80 MB
    # at n = 10000019) is built: the refusal allocates almost nothing
    tracemalloc.start()
    try:
        with pytest.raises(mod.BudgetExceededError, match="enumeration too large"):
            _pair_counts(SchemeSpec(RSJ, 10000019, 2, shift=shift))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# -- the lattice without a shift, by index-pair classes ---------------------


def oracle_unshifted_query(spec, Q, R):
    """(joint, P(p1 in Q), P(p2 in R)) without a shift, over every index pair and generator value.

    Given the index pair (a, b) the coordinates are independent: coordinate
    i contributes sum_gamma w(gamma a) w(gamma b) over its generator values,
    with the Fraction cell weights as integers over each anchor's
    denominator.  Every ordered pair a != b is summed, no class merged.
    """
    n, dim, position = spec.n, spec.dim, _law(spec).position
    gammas = [range(1, n)] * dim if spec.generator == "random" else [[g] for g in spec.generator]
    joint, p1, p2 = (np.ones((n, n), dtype=object), np.ones(n, dtype=object),
                     np.ones(n, dtype=object))
    for i, (q, r) in enumerate(zip(Q.anchor, R.anchor)):
        # W[gamma, a]: the weight of cell gamma a mod n
        wq, wr = ([int(_cell_weight(c, a, n, position) * a.denominator) for c in range(n)]
                  for a in (q, r))
        Wq, Wr = (np.array([[w[g * a % n] for a in range(n)] for g in gammas[i]], dtype=object)
                  for w in (wq, wr))
        joint, p1, p2 = joint * (Wq.T @ Wr), p1 * Wq.sum(axis=0), p2 * Wr.sum(axis=0)
    dq, dr = (prod(a.denominator for a in box.anchor) for box in (Q, R))
    count = prod(len(g) for g in gammas)
    off_diagonal = int(joint.sum()) - int(np.trace(joint))
    return (F(off_diagonal, n * (n - 1) * count * dq * dr), F(int(p1.sum()), n * count * dq),
            F(int(p2.sum()), n * count * dr))


UNSHIFTED = [replace(s, jitter=jitter) for s in LATTICE if s.kind == RSJ and s.shift == "none"
             for jitter in (True, False)]


@pytest.mark.parametrize("spec", UNSHIFTED, ids=[_spec_id(s) for s in UNSHIFTED])
def test_unshifted_queries_match_enumeration_and_oracles(spec):
    # the class route against the dense law, the law of the index-pair
    # enumerator weighed one Fraction at a time, and every index pair and
    # generator value; Q != R, and R is Q (the marginal queries' case)
    law = pair_law(spec, *oracle_pair_counts(spec))
    rnd = random.Random(_spec_id(spec))
    for _ in range(2):
        Q, R = (AnchoredBox(_anchors(rnd, spec.n, spec.dim)) for _ in range(2))
        for R in (R, Q):
            want = (oracle_box_prob(law, Q, R), oracle_marginal_prob(law, Q, 0),
                    oracle_marginal_prob(law, R, 1))
            assert _pair_query(spec, Q, R) == _pair_query(spec, Q, R, "enumeration") == want
            assert oracle_unshifted_query(spec, Q, R) == want
            assert (pair_box_prob(spec, Q, R), pair_marginal_prob(spec, Q, 0),
                    pair_marginal_prob(spec, R, 1)) == want


# fixed and random generators, jitter on and off, dim 1 to 3, a grid on
# and off the multiples of n
UNSHIFTED_SCANS = [(SchemeSpec(RSJ, 2, 3, shift="none"), 2),
                   (SchemeSpec(RSJ, 3, 1, generator=(2,), shift="none"), 6),
                   (SchemeSpec(RSJ, 3, 3, generator=(1, 2, 1), shift="none", jitter=False), 3),
                   (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none", jitter=False), 5),
                   (SchemeSpec(RSJ, 5, 2, shift="none", jitter=False), 10),
                   (SchemeSpec(RSJ, 5, 2, shift="none"), 7),
                   (SchemeSpec(RSJ, 7, 1, shift="none"), 7),
                   (SchemeSpec(RSJ, 7, 2, generator=(1, 3), shift="none"), 7)]


@pytest.mark.parametrize("spec,m", UNSHIFTED_SCANS,
                         ids=[f"{_spec_id(s)}-M={m}" for s, m in UNSHIFTED_SCANS])
def test_unshifted_scans_match_dense_route_and_oracles(spec, m):
    # reports and pairs-CSV bytes against the dense contraction's rows, and
    # the report against the Fraction scan of the index-pair enumerator's law
    report = nuod_scan(spec, m)
    assert report == expanded_report(spec, m, dense=True)
    assert_same_pairs_csv(scan_csv(spec, m), oracle_pairs_csv(spec, m))
    law = pair_law(spec, *oracle_pair_counts(spec))
    worst, witnesses = oracle_scan(spec, m, law)
    assert (report.worst_violation, list(report.witnesses)) == (worst, witnesses)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 101])
def test_unshifted_mass_off_the_first_cell(n):
    # only point 0 sits in cell 0 of a coordinate, whatever the generator,
    # and it sits there in every coordinate: [1/n, 1)^dim holds each point
    # with probability (n - 1)/n, 1 - no_shift_mass, jitter on or off
    for dim in (1, 2, 3):
        gens = dict.fromkeys(["random", (1,) * dim, tuple(1 + (5 * i + 2) % (n - 1) for i in range(dim))])
        for gen, jitter in product(gens, (True, False)):
            spec = SchemeSpec(RSJ, n, dim, generator=gen, shift="none", jitter=jitter)
            first = AnchoredBox((F(1, n),) * dim)
            want = F(n - 1, n)
            assert want == 1 - no_shift_mass(n, dim)
            assert pair_marginal_prob(spec, first, 0) == pair_marginal_prob(spec, first, 1) == want
            if n ** (2 * dim) <= 10**4:
                assert _pair_query(spec, first, first, "enumeration")[1:] == (want, want)


def test_unshifted_query_at_101_cubed():
    # the dense law has 101^6 cells per side, 1.07e12 terms: refused; the
    # class sum costs 3 x 101 x 100 terms and matches every index pair
    spec = SchemeSpec(RSJ, 101, 3, shift="none")
    Q, R = AnchoredBox((F(1, 3),) * 3), AnchoredBox((F(2, 5),) * 3)
    want = (F(7530228817, 113625000000), F(10201, 33750), F(275427, 1250000))
    assert _pair_query(spec, Q, R) == want == oracle_unshifted_query(spec, Q, R)
    assert (pair_box_prob(spec, Q, R), pair_marginal_prob(spec, Q, 0),
            pair_marginal_prob(spec, R, 1)) == want
    with pytest.raises(mod.BudgetExceededError, match="enumeration too large"):
        _pair_query(spec, Q, R, "enumeration")
    fixed = SchemeSpec(RSJ, 101, 3, generator=(1, 2, 3), shift="none")
    assert _pair_query(fixed, Q, R, budget=2 * 3 * 101) == oracle_unshifted_query(fixed, Q, R)


def test_unshifted_scan_at_23_squared():
    # the dense contraction costs 296 351 619 multiply-adds here, past the
    # default budget; the classes cost 21 x 22 x 23^2 + 24 x 23^4
    spec, m = SchemeSpec(RSJ, 23, 2, shift="none"), 23
    with pytest.raises(mod.BudgetExceededError, match="6960582 multiply-adds"):
        nuod_scan(spec, m, budget=6960581)
    report = nuod_scan(spec, m)
    assert len(report.witnesses) == 50806
    assert report.worst_violation == F(39, 23276)
    Q, R, *_ = report.witnesses[0]
    assert (Q.anchor, R.anchor) == ((F(16, 23),) * 2, (F(8, 23),) * 2)
    assert report == expanded_report(spec, m, dense=True)


@pytest.mark.parametrize("spec,work", [
    (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 2 * 2 * 5),
    (SchemeSpec(RSJ, 5, 2, shift="none"), 2 * 5 * 4),
    (SchemeSpec(RSJ, 7, 3, shift="none", jitter=False), 3 * 7 * 6),
], ids=["fixed", "random", "random-dim3"])
def test_unshifted_query_budget_counts_class_terms(spec, work, monkeypatch):
    # 2 dim n weights for a fixed generator, dim n (n - 1) for a random one,
    # and dim n for a marginal alone, charged before any weight column is built
    Q, R = AnchoredBox((F(1, 3),) * spec.dim), AnchoredBox((F(2, 5),) * spec.dim)
    want = _pair_query(spec, Q, R)
    assert _pair_query(spec, Q, R, budget=work) == want
    with pytest.raises(mod.BudgetExceededError, match=f"class sum too large: {work} terms"):
        _pair_query(spec, Q, R, budget=work - 1)
    marginal = spec.dim * spec.n
    assert pair_marginal_prob(spec, R, 1, budget=marginal) == want[2]
    with pytest.raises(mod.BudgetExceededError, match=f"class sum too large: {marginal} terms"):
        pair_marginal_prob(spec, Q, 1, budget=marginal - 1)

    def unbuilt(*args):
        raise AssertionError("a weight column was built")

    monkeypatch.setattr(mod, "_cell_weights", unbuilt)
    with pytest.raises(mod.BudgetExceededError):
        _pair_query(spec, Q, R, budget=work - 1)


@pytest.mark.parametrize("spec,m,work", [
    # n B (1 + B) + B^2, B = M^dim
    (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 5, 5 * 25 * 26 + 625),
    (SchemeSpec(RSJ, 3, 3, generator=(1, 2, 1), shift="none", jitter=False), 2, 3 * 8 * 9 + 64),
    # (n - 2)(n - 1) M^2 + n B^2 + B^2
    (SchemeSpec(RSJ, 5, 2, shift="none"), 5, 3 * 4 * 25 + 5 * 625 + 625),
    (SchemeSpec(RSJ, 7, 1, shift="none"), 14, 5 * 6 * 196 + 7 * 196 + 196),
], ids=["fixed", "fixed-dim3", "random", "random-dim1"])
def test_unshifted_scan_budget_counts_class_terms(spec, m, work):
    # nuod_scan and the pairs CSV expand the same box pairs: one charge
    for call in (lambda b: nuod_scan(spec, m, budget=b), lambda b: scan_csv(spec, m, b)[0]):
        with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
            call(work - 1)
        assert call(work) == nuod_scan(spec, m)


def test_unshifted_class_sum_runs_in_bounded_memory(monkeypatch):
    # a block of ratios at a time: at n = 2003 the whole ratio table would
    # hold 2001 x 2002 x 2 weights (64 MB as int64); the blocks keep the
    # traced peak far below that, and their size does not change the value
    spec = SchemeSpec(RSJ, 2003, 2, shift="none")
    Q, R = AnchoredBox((F(1, 3), F(5, 7))), AnchoredBox((F(2, 5), F(1, 2)))
    tracemalloc.start()
    try:
        triple = _pair_query(spec, Q, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22, peak
    monkeypatch.setattr(mod, "_BLOCK", 1 << 20)
    assert _pair_query(spec, Q, R) == triple
    first = AnchoredBox((F(1, 2003),) * 2)
    assert pair_marginal_prob(spec, first) == F(2002, 2003)


@pytest.mark.parametrize("limit", [mod._INT64_SAFE_LIMIT, 1], ids=["int64", "python-int"])
def test_unshifted_routes_in_python_ints(limit, monkeypatch):
    # every class term and table in python ints gives the same values
    queries = [(SchemeSpec(RSJ, 7, 2, generator=gen, shift="none", jitter=jitter),
                AnchoredBox((F(2, 7), F(5, 21))), AnchoredBox((F(1, 2), F(3, 14))))
               for gen in ("random", (1, 3)) for jitter in (True, False)]
    want = [oracle_unshifted_query(*q) for q in queries]
    scans = [(SchemeSpec(RSJ, 5, 2, shift="none"), 5), (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 5)]
    reports = [expanded_report(spec, m, dense=True) for spec, m in scans]
    monkeypatch.setattr(mod, "_INT64_SAFE_LIMIT", limit)
    assert [_pair_query(*q) for q in queries] == want
    assert [nuod_scan(spec, m) for spec, m in scans] == reports


# -- a fixed generator under a grid shift, by lag classes ---------------------

# the fixed-generator grid-shift scans of the tests and of the exact-scan
# benchmark, the exact-query benchmark's specs, and dim 1; jitter on and off,
# at most 1e6 box pairs (rsj(7,3) at M = 15 would take 5 s)
LAG_SPECS = [SchemeSpec(RSJ, n, len(g), generator=g, jitter=jitter)
             for n, g in ((5, (2,)), (3, (1, 2)), (5, (1, 1)), (5, (1, 2)), (7, (1, 1)), (7, (1, 3)),
                          (13, (1, 5)), (3, (1, 1, 1)), (3, (1, 2, 1)), (7, (1, 2, 3)))
             for jitter in (True, False)]
LAG_SCANS = [(spec, m) for spec in LAG_SPECS for m in dict.fromkeys((1, 5, spec.n, 2 * spec.n + 1))
             if m ** (2 * spec.dim) <= 10**6]


@pytest.mark.parametrize("spec,m", LAG_SCANS, ids=[f"{_spec_id(s)}-M={m}" for s, m in LAG_SCANS])
def test_lag_scans_match_dense_oracle(spec, m):
    # reports against the dense contraction's rows, and pairs-CSV bytes
    # where the Fraction rows stay under 1e5
    report = nuod_scan(spec, m)
    assert report == expanded_report(spec, m, dense=True)
    if m ** (2 * spec.dim) <= 10**5:
        assert_same_pairs_csv(scan_csv(spec, m), oracle_pairs_csv(spec, m, dense=True))


def test_lag_scan_builds_no_cell_pair_law(monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the cell-pair law was built or contracted")

    spec, m = SchemeSpec(RSJ, 7, 3, generator=(1, 2, 3)), 7
    want = nuod_scan(spec, m), scan_csv(spec, m)
    monkeypatch.setattr(mod, "_pair_counts", unbuilt)
    monkeypatch.setattr(mod, "_contract", unbuilt)
    assert (nuod_scan(spec, m), scan_csv(spec, m)) == want
    assert not want[0].ok


def test_fixed_generator_scan_past_the_dense_law():
    # g = (1, 1), jitter on, M = n: the dense contraction was refused at
    # n = 23 (296 351 619 multiply-adds); the lag classes cost
    # n^2 M^2 + (n - 1) B^2 + B^2 = (n + 1) n^4, under the default budget up
    # to n = 37
    spec = SchemeSpec(RSJ, 23, 2, generator=(1, 1))
    report = nuod_scan(spec, 23)
    assert report.worst_violation == F(4115, 279841)
    Q, R, *_ = report.witnesses[0]
    assert (Q.anchor, R.anchor) == ((F(13, 23),) * 2, (F(11, 23),) * 2)
    assert report == expanded_report(spec, 23, dense=True)
    spec = SchemeSpec(RSJ, 31, 2, generator=(1, 1))
    assert nuod_scan(spec, 31).worst_violation == F(44555, 2770563)
    for n, budget in ((37, 38 * 37**4 - 1), (41, mod.DEFAULT_BUDGET)):
        work = (n + 1) * n**4
        assert (work <= mod.DEFAULT_BUDGET) == (n == 37)
        with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds exceeds budget {budget}$"):
            nuod_scan(SchemeSpec(RSJ, n, 2, generator=(1, 1)), n, budget=budget)


# -- structural checks on the integer counts ----------------------------------


def oracle_copula(spec):
    law_a = law_of(spec)
    law_b = law_of(lhs_spec(spec.n, spec.dim))
    worst = F(0)
    for k in set(law_a.pmf) | set(law_b.pmf):
        worst = max(worst, abs(law_a.pmf.get(k, F(0)) - law_b.pmf.get(k, F(0))))
    return worst == 0, worst


def oracle_independence(spec):
    """(ok, witness): the first failing assignment over Fraction marginals."""
    law = law_of(spec)

    def marginalize(idx):
        out = {}
        for (z1, z2), p in law.pmf.items():
            key = tuple((z1[i], z2[i]) for i in idx)
            out[key] = out.get(key, F(0)) + p
        return out

    singles = [{key[0]: p for key, p in marginalize((i,)).items()} for i in range(spec.dim)]
    for size in range(2, spec.dim + 1):
        for idx in combinations(range(spec.dim), size):
            joint = marginalize(idx)
            for assignment in product(*(singles[i].keys() for i in idx)):
                expected = F(1)
                for i, cellpair in zip(idx, assignment):
                    expected *= singles[i][cellpair]
                got = joint.get(tuple(assignment), F(0))
                if got != expected:
                    return False, {"subset": idx, "cells": assignment,
                                   "joint": got, "product": expected}
    return True, None


STRUCTURAL = [
    SchemeSpec(RSJ, 7, 3, generator=(1, 2, 3)),
    SchemeSpec(RSJ, 5, 3, shift="none"),
    SchemeSpec(RSJ, 5, 3, generator=(1, 2, 2)),
    SchemeSpec(RSJ, 5, 2, generator=(1, 1)),
    SchemeSpec(RSJ, 3, 2, shift="none", jitter=False),
    SchemeSpec(RSJ, 5, 1, shift="none"),
    full_rsj(3, 2),
    full_rsj(5, 3),
    lhs_spec(4, 3),
]


@pytest.mark.parametrize("spec", STRUCTURAL, ids=[_spec_id(s) for s in STRUCTURAL])
def test_structural_checks_match_fraction_oracle(spec):
    cc = copula_equality_check(spec.n, spec.dim, spec)
    assert tuple(cc) == oracle_copula(spec)
    rep = coordinate_independence_check(spec.n, spec.dim, spec)
    ok, witness = oracle_independence(spec)
    assert (rep.ok, rep.witness) == (ok, witness)
    assert repr(rep.witness) == repr(witness)  # the same types, not only equal values


def test_structural_checks_pass_at_eleven_cubed():
    # refused before the index-pair classes: 1.46e8 enumerated terms
    assert copula_equality_check(11, 3) == (True, F(0))
    assert coordinate_independence_check(11, 3).ok


def test_structural_checks_on_the_difference_row_at_scale():
    # shift-invariant laws are checked on their n^d difference row: the
    # dense law of (17, 3) has 2.4e7 entries, that of (101, 3) 1.06e12
    assert coordinate_independence_check(17, 3).ok
    fixed = SchemeSpec(RSJ, 101, 3, generator=(1, 2, 3))
    # lattice cells have mass 1/(n^d (n-1)), lhs cells 1/(n^d (n-1)^d)
    n, d = 101, 3
    worst = F((n - 1) ** (d - 1) - 1, n**d * (n - 1) ** d)
    assert worst == F(99, 10201000000)
    assert copula_equality_check(n, d, fixed) == (False, worst)
    # F is 1 at (delta, 2 delta, 3 delta): in Fortran order the support
    # starts at 3 delta = 1, delta = 34, so the first cell pairs are (0, 34)
    # and (0, 68), with joint 1/(n^2 (n-1)) and marginals 1/(n (n-1))
    rep = coordinate_independence_check(n, d, fixed)
    assert rep == IndependenceReport(False, {
        "subset": (0, 1), "cells": ((0, 34), (0, 68)),
        "joint": F(1, n**2 * (n - 1)), "product": F(1, n * (n - 1)) ** 2})


@pytest.mark.parametrize("spec,work", [
    (full_rsj(5, 2), 4**2 + 5**2),  # the one class's codes plus the 5^2 entries of F
    (SchemeSpec(RSJ, 5, 2, shift="none"), 20 * 4**2 + 5**4),  # plus the 5^4 of P
], ids=["grid", "none"])
def test_structural_check_budgets(spec, work):
    # each law is charged on its own; lhs's is at most the lattice's here
    for check in (copula_equality_check, coordinate_independence_check):
        with pytest.raises(mod.BudgetExceededError, match=f"{work} terms exceeds budget {work - 1}"):
            check(5, 2, spec, budget=work - 1)
        check(5, 2, spec, budget=work)


def test_structural_checks_on_the_full_lattice_at_101_cubed():
    # one class of 100^3 codes plus the 101^3 entries of F, for the lattice
    # and for lhs alike
    assert 100**3 + 101**3 == 2030301
    for check in (copula_equality_check, coordinate_independence_check):
        with pytest.raises(mod.BudgetExceededError, match="2030301 terms exceeds budget 2030300"):
            check(101, 3, budget=2030300)
    assert copula_equality_check(101, 3) == (True, F(0))
    assert coordinate_independence_check(101, 3).ok


def _xor_counts(n, pairs):
    """(P, total) of a law that is pairwise independent but not three-wise.

    Coordinate i takes cell pair pairs[i][x_i] for bits x_0, x_1 uniform and
    x_2 = x_0 xor x_1: four equally likely cell vector pairs.
    """
    dim = len(pairs)
    P = np.zeros((n**dim, n**dim), dtype=np.int64)
    for x0, x1 in product((0, 1), repeat=2):
        cell_pairs = [pairs[i][x] for i, x in enumerate((x0, x1, x0 ^ x1))]
        z1, z2 = (sum(c[k] * n ** (dim - 1 - i) for i, c in enumerate(cell_pairs)) for k in (0, 1))
        P[z1, z2] += 1
    return P, 4


def test_independence_witness_on_a_later_subset(monkeypatch):
    # no supported spec fails past subset (0, 1); coordinate 0's first cell
    # pair in support order, (2, 1), is not its smallest code.  The law of
    # a spec without a shift is read on the dense route
    n, pairs = 3, [((2, 1), (0, 1)), ((0, 1), (1, 2)), ((1, 0), (2, 0))]
    monkeypatch.setattr(mod, "_pair_counts", lambda *args, **kwargs: _xor_counts(n, pairs))
    spec = SchemeSpec(RSJ, n, 3, shift="none")
    rep = coordinate_independence_check(n, 3, spec)
    ok, witness = oracle_independence(spec)
    assert not ok and witness["subset"] == (0, 1, 2) and witness["cells"][0] == (2, 1)
    assert (rep.ok, rep.witness) == (ok, witness)
    assert repr(rep.witness) == repr(witness)


def _xor_row(n, diffs):
    """(F, total) of a difference row that is pairwise independent but not three-wise.

    Coordinate i takes difference diffs[i][x_i] for bits x_0, x_1 uniform
    and x_2 = x_0 xor x_1; total is the sum of the gathered law, n^3 sum F.
    """
    F_ = np.zeros((n,) * 3, dtype=np.int64)
    for x0, x1 in product((0, 1), repeat=2):
        F_[tuple(diffs[i][x] for i, x in enumerate((x0, x1, x0 ^ x1)))] += 1
    return F_, 4 * n**3


def test_independence_witness_on_a_later_subset_of_the_difference_row(monkeypatch):
    # F read alone: coordinate 0's first difference in support order, 2, is
    # not its smallest, so its first cell pair is (0, 2), not (0, 1)
    n = 3
    row, total = _xor_row(n, [(2, 1), (1, 2), (1, 2)])
    cellv = np.array(list(product(range(n), repeat=3)))
    # P[z1, z2] = F[z2 - z1], for the Fraction oracle
    dense = row[tuple(((cellv[None, :, :] - cellv[:, None, :]) % n).transpose(2, 0, 1))]
    calls = []

    def law(spec, budget, gather=True):
        calls.append(gather)
        return (dense if gather else row), total

    monkeypatch.setattr(mod, "_pair_counts", law)
    rep = coordinate_independence_check(n, 3)
    assert calls == [False]
    ok, witness = oracle_independence(full_rsj(n, 3))
    assert not ok and witness["subset"] == (0, 1, 2) and witness["cells"][0] == (0, 2)
    assert (rep.ok, rep.witness) == (ok, witness)
    assert repr(rep.witness) == repr(witness)


@pytest.mark.parametrize("spec", [lhs_spec(3, 6), full_rsj(3, 6), lhs_spec(2, 16)],
                         ids=["lhs(3,6)", "rsj(3,6)", "lhs(2,16)"])
def test_passing_independence_check_makes_one_comparison(monkeypatch, spec):
    # a law that factorizes over all coordinates factorizes over every
    # subset: one comparison, where a search of every subset of two or more
    # coordinates makes 57 at d = 6 and 65519 at d = 16
    calls = []
    equal = np.array_equal
    monkeypatch.setattr(mod.np, "array_equal", lambda a, b: calls.append(1) or equal(a, b))
    assert coordinate_independence_check(spec.n, spec.dim, spec).ok
    assert len(calls) == 1


# every lattice law with n <= 7 and d <= 4 under a grid shift or none, with
# the random generator or one of the first six fixed generators of its size
SMALL_LATTICES = [SchemeSpec(RSJ, n, d, generator=g, shift=shift)
                  for n in (2, 3, 5, 7) for d in (1, 2, 3, 4)
                  for g in ["random", *islice(product(range(1, n), repeat=d), 6)]
                  for shift in ("grid", "none")]


def test_failing_lattice_laws_fail_first_at_coordinates_zero_and_one():
    # why the subset search after a failed full comparison needs no budget
    # of its own: on these laws it stops at its first subset
    subsets = [rep.witness["subset"] for spec in SMALL_LATTICES
               if not (rep := coordinate_independence_check(spec.n, spec.dim, spec)).ok]
    assert len(subsets) == 119 and set(subsets) == {(0, 1)}


def test_law_build_and_structural_check_memory_peaks():
    # the law of (7, 3) is 343 x 343 int64, 0.94 MB.  The build holds no
    # n^(2d) index array or second copy.  A check of a shift-invariant law,
    # passing or failing, holds its 343-entry difference rows and never
    # gathers the law; without a shift a check holds a few laws
    law_bytes = 7**6 * 8
    fixed = SchemeSpec(RSJ, 7, 3, generator=(1, 2, 3))
    unshifted = SchemeSpec(RSJ, 7, 3, shift="none")

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / law_bytes
        finally:
            tracemalloc.stop()

    assert peak(lambda: _pair_counts(full_rsj(7, 3))) <= 1.5
    row = [peak(lambda c=c, s=s: c(7, 3, s))
           for c in (coordinate_independence_check, copula_equality_check)
           for s in (full_rsj(7, 3), fixed)]
    assert max(row) <= 0.1, row
    dense = [peak(lambda c=c: c(7, 3, unshifted))
             for c in (coordinate_independence_check, copula_equality_check)]
    assert max(dense) <= 3.5, dense


# -- the torus route over delta = b - a ---------------------------------------


def torus_dist(x, y) -> F:
    """Distance on the circle T^1: min of the two arc lengths between x, y."""
    x, y = F(x), F(y)
    if not (0 <= x < 1 and 0 <= y < 1):
        raise ValueError("torus coordinates must lie in [0, 1)")
    hi, lo = (x, y) if x >= y else (y, x)
    return min(hi - lo, 1 - hi + lo)


@dataclass(frozen=True)
class CircularInterval:
    """Half-open arc [start, start+length) on the unit circle.

    start lies in [0,1); length in [0,1]. start+length > 1 wraps past 1.
    """

    start: F
    length: F

    def __post_init__(self):
        object.__setattr__(self, "start", F(self.start))
        object.__setattr__(self, "length", F(self.length))
        if not 0 <= self.start < 1:
            raise ValueError("start must lie in [0, 1)")
        if not 0 <= self.length <= 1:
            raise ValueError("length must lie in [0, 1]")

    def segments(self) -> list:
        """The arc as one or two linear half-open pieces inside [0, 1)."""
        end = self.start + self.length
        if end <= 1:
            return [(self.start, end)]
        return [(self.start, F(1)), (F(0), end - 1)]


def circular_overlap(a: CircularInterval, b: CircularInterval) -> F:
    """Lebesgue measure of the intersection of two arcs on the circle."""
    total = F(0)
    for lo1, hi1 in a.segments():
        for lo2, hi2 in b.segments():
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                total += hi - lo
    return total


def _shifted_pair_overlap(x1, x2, q, r) -> F:
    """Measure of shifts u with x1+u in [q,1) and x2+u in [r,1) (mod 1)."""
    if q >= 1 or r >= 1:
        return F(0)
    arc1 = CircularInterval((q - x1) % 1, 1 - q)
    arc2 = CircularInterval((r - x2) % 1, 1 - r)
    return circular_overlap(arc1, arc2)


def oracle_torus_box_prob(spec, Q, R):
    n = spec.n
    total = F(0)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            term = F(1)
            for i in range(spec.dim):
                gammas = range(1, n) if spec.generator == "random" else [spec.generator[i]]
                acc = sum((_shifted_pair_overlap(F(g * a % n, n), F(g * b % n, n),
                                                 Q.anchor[i], R.anchor[i]) for g in gammas), F(0))
                term *= acc / len(gammas)
            total += term
    return total / (n * (n - 1))


TORUS = [SchemeSpec(RSJ, n, dim, generator=gen, shift="continuous_torus", jitter=False)
         for n, dim, gen in ((3, 1, "random"), (5, 2, "random"), (5, 2, (1, 3)),
                             (7, 3, "random"), (7, 3, (1, 2, 3)), (7, 2, (6, 6)))]


@pytest.mark.parametrize("spec", TORUS, ids=[_spec_id(s) for s in TORUS])
def test_torus_route_matches_index_pair_loop(spec):
    rnd = random.Random(str(spec))
    for _ in range(6):
        Q = AnchoredBox(_anchors(rnd, spec.n, spec.dim))
        R = AnchoredBox(_anchors(rnd, spec.n, spec.dim))
        assert pair_box_prob(spec, Q, R) == oracle_torus_box_prob(spec, Q, R)


def test_torus_budget_counts_summed_terms():
    # dim x (n - 1) for either generator: a random one sums each coordinate's
    # n - 1 lags once, as one class
    box = AnchoredBox((F(1, 3), F(2, 5)))
    for gen in ("random", (1, 3)):
        spec = SchemeSpec(RSJ, 5, 2, generator=gen, shift="continuous_torus", jitter=False)
        with pytest.raises(mod.BudgetExceededError, match=f"{2 * 4} terms"):
            pair_box_prob(spec, box, box, budget=2 * 4 - 1)
        assert pair_box_prob(spec, box, box, budget=2 * 4) == oracle_torus_box_prob(spec, box, box)


# n = 1000003 at these anchors puts the denominator past 2^62, where the
# class sum once held n-entry object arrays.  The fixed joint comes from a
# plain python loop over delta, the random one from each coordinate's sum
# over its nonzero lags, looped the same way
BIG_TORUS = [((3, 5), F(13338084251131636573, 70000560001470001260)),
             ("random", F(4000037400130400200800115, 21000210000777001260000756))]


@pytest.mark.parametrize("gen,joint", BIG_TORUS, ids=["fixed", "random"])
def test_torus_class_sum_runs_in_bounded_memory(gen, joint):
    # one block of lags at a time, int64 overlaps, python ints for the products only
    spec = SchemeSpec(RSJ, 1000003, 2, generator=gen, shift="continuous_torus", jitter=False)
    Q, R = AnchoredBox((F(1, 3), F(1, 5))), AnchoredBox((F(2, 7), F(1, 2)))
    tracemalloc.start()
    try:
        got = pair_box_prob(spec, Q, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == joint
    assert peak < 2**22, peak


LARGE = [lhs_spec(100003, 2), full_rsj(100003, 2), patterson_spec(100003, 2),
         stratified_spec(100003)]


@pytest.mark.parametrize("spec", LARGE, ids=[_spec_id(s) for s in LARGE])
def test_large_factorized_query_matches_closed_form(spec):
    # the step route against the per-coordinate Fraction closed forms
    Q = AnchoredBox((F(1, 3), F(12345, 100003))[:spec.dim])
    R = AnchoredBox((F(2, 7), F(1, 2))[:spec.dim])
    want = oracle_factorized_query(spec, Q, R)
    assert _pair_query(spec, Q, R) == _pair_query(spec, Q, R, "closed_form") == want
    assert pair_box_prob(spec, Q, R) == want[0]


# a prime near 10^18 (full_rsj needs a prime n)
PRIME = 10**18 + 3


def test_factorized_query_costs_o_of_dim(monkeypatch):
    # one weight per anchor: at budget 1, n = 10^30 and n near 10^18 are
    # answered in well under 1 MB, marginals by the same route; no law or
    # weight column is built, and nothing is contracted
    def unbuilt(*args):
        raise AssertionError("the factorized query contracted a law")

    monkeypatch.setattr(mod, "_contract", unbuilt)
    cases = [(lhs_spec(10**30, 3), AnchoredBox((F(1, 3), F(2, 7), F(10**29 + 1, 10**30))),
              AnchoredBox((F(1, 3), F(5, 11), F(1, 2)))),
             (full_rsj(PRIME, 2), AnchoredBox((F(1, 2), F(1, 3))),
              AnchoredBox((F(7, PRIME), F(1, 3))))]
    for spec, Q, R in cases:
        tracemalloc.start()
        try:
            triple = _pair_query(spec, Q, R, budget=1)
            queries = (pair_box_prob(spec, Q, R, budget=1), pair_marginal_prob(spec, Q, 0, budget=1),
                       pair_marginal_prob(spec, R, 1, budget=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert triple == queries == oracle_factorized_query(spec, Q, R)
        assert peak < 2**20, peak


@pytest.mark.parametrize("side", [-1, 2])
def test_marginal_side_must_be_zero_or_one(side):
    with pytest.raises(ValueError, match="side"):
        pair_marginal_prob(lhs_spec(3, 2), AnchoredBox((F(1, 3), F(1, 2))), side)


@pytest.mark.parametrize("side", [True, False, 1.0, 0.0], ids=["True", "False", "1.0", "0.0"])
def test_marginal_side_must_be_an_integer(side):
    # a bool or a float is not read as side 1 or 0; numpy integers are
    spec, box = SchemeSpec(RSJ, 5, 2, shift="none"), AnchoredBox((F(1, 3), F(1, 2)))
    with pytest.raises(TypeError, match="integer"):
        pair_marginal_prob(spec, box, side)
    assert pair_marginal_prob(spec, box, np.int64(1)) == pair_marginal_prob(spec, box, 1)


@pytest.mark.parametrize("m", [True, 5.0, 2.5], ids=["True", "5.0", "2.5"])
def test_grid_resolution_must_be_an_integer(m):
    # nuod_scan(spec, True) once reported a grid "k/True for 0 <= k < True"
    spec = full_rsj(5, 2)
    for call in (lambda: nuod_scan(spec, m), lambda: scan_csv(spec, m)):
        with pytest.raises(TypeError, match="integer"):
            call()
    report = nuod_scan(spec, np.int64(5))
    assert report == nuod_scan(spec, 5) and type(report.grid["resolution"]) is int


def test_torus_budget_is_charged_before_the_generators():
    # a random generator builds no generator array: at n = 1000003 its
    # dim (n - 1) terms are refused one below the budget having allocated
    # almost nothing, and answered at it as the product of the
    # one-coordinate queries (in one dimension every generator is generator 1)
    n = 1000003
    spec = SchemeSpec(RSJ, n, 2, shift="continuous_torus", jitter=False)
    Q, R = AnchoredBox((F(1, 3), F(2, 5))), AnchoredBox((F(5, 7), F(1, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(mod.BudgetExceededError, match=f"{2 * (n - 1)} terms"):
            _pair_query(spec, Q, R, budget=2 * (n - 1) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak
    line = SchemeSpec(RSJ, n, 1, generator=(1,), shift="continuous_torus", jitter=False)
    want = prod(pair_box_prob(line, AnchoredBox((q,)), AnchoredBox((r,)))
                for q, r in zip(Q.anchor, R.anchor))
    assert _pair_query(spec, Q, R, budget=2 * (n - 1)) == (want, Q.volume(), R.volume())


@pytest.mark.parametrize("spec", [full_rsj(5, 10**4), lhs_spec(2, 10**6),
                                  SchemeSpec(RSJ, 5, 10**4, shift="none")],
                         ids=["rsj-grid", "lhs", "rsj-none"])
def test_huge_dim_is_refused_before_n_to_the_dim(spec):
    # the law has at least 2^dim cells, so a dim past the budget's bit
    # length is refused before n^dim (thousands of digits) is formed
    with pytest.raises(mod.BudgetExceededError, match=f"at least 2\\^{spec.dim} terms"):
        _pair_counts(spec)
    # the scan's expansion has at least 2^(2 dim) box pairs
    with pytest.raises(mod.BudgetExceededError, match="at least 2\\^"):
        scan_csv(spec, 5)


# -- one route per query ----------------------------------------------------


def _box_on_half_grid(draw, n, dim):
    return AnchoredBox(tuple(F(draw(st.integers(0, 2 * n - 1)), 2 * n) for _ in range(dim)))


@st.composite
def _query_cases(draw):
    """A spec of any kind and ablation (prime n <= 7, dim <= 3) and two boxes on the k/(2n) grid."""
    n, kind = draw(st.sampled_from([2, 3, 5, 7])), draw(st.sampled_from(KINDS))
    dim = 1 if kind == "stratified1d" else draw(st.integers(1, 3))
    flags = {}
    if kind == RSJ:
        flags = {"generator": draw(st.one_of(st.just("random"),
                                             st.tuples(*[st.integers(1, n - 1)] * dim))),
                 "shift": draw(st.sampled_from(SHIFTS)), "jitter": draw(st.booleans())}
    return (SchemeSpec(kind, n, dim, **flags), _box_on_half_grid(draw, n, dim),
            _box_on_half_grid(draw, n, dim))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_query_cases())
def test_query_routes_agree(case):
    # auto and enumeration give one triple, and closed_form the same on every
    # factorized law: the Fraction closed forms for jitter and midpoints, and
    # for cell corners enumeration alone; a torus shift has the box volumes
    # as marginals
    spec, Q, R = case
    if spec.kind == RSJ and spec.shift == "continuous_torus":
        if spec.jitter:
            with pytest.raises(UnsupportedSchemeError):
                _pair_query(spec, Q, R)
            return
        joint, mq, mr = _pair_query(spec, Q, R)
        assert (mq, mr) == (Q.volume(), R.volume())
        assert (pair_marginal_prob(spec, Q, 0), pair_marginal_prob(spec, R, 1)) == (mq, mr)
        assert pair_box_prob(spec, Q, R) == joint
        for method in ("enumeration", "closed_form"):
            with pytest.raises(UnsupportedSchemeError):
                _pair_query(spec, Q, R, method)
        return
    auto = _pair_query(spec, Q, R)
    assert _pair_query(spec, Q, R, "enumeration") == auto
    assert (pair_box_prob(spec, Q, R), pair_marginal_prob(spec, Q, 0),
            pair_marginal_prob(spec, R, 1)) == auto
    if _law(spec).factorized:
        assert _pair_query(spec, Q, R, "closed_form") == auto
        if _law(spec).position != "corner":
            assert auto == oracle_factorized_query(spec, Q, R)
    else:
        with pytest.raises(UnsupportedSchemeError):
            _pair_query(spec, Q, R, "closed_form")


# every route that sums index-pair classes, with its calls of (_class_terms,
# _class_sum, _pair_counts): one kernel sums every class route.  A random
# generator on the torus sums each coordinate alone; a fixed generator
# without a shift is the sum U sum V - U.V formula, and every marginal a
# formula, with no class sum; a certificate that holds expands nothing.  A
# fixed generator under a grid shift still reads its one _pair_counts factor
TORUS_FIXED = SchemeSpec(RSJ, 5, 2, generator=(1, 3), shift="continuous_torus", jitter=False)
TORUS_RANDOM = SchemeSpec(RSJ, 5, 2, shift="continuous_torus", jitter=False)
NONE_RANDOM = SchemeSpec(RSJ, 5, 2, shift="none")
NONE_FIXED = SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none", jitter=False)
GRID_FIXED = SchemeSpec(RSJ, 5, 2, generator=(1, 2))
ROUTE_Q, ROUTE_R = AnchoredBox((F(1, 3), F(2, 5))), AnchoredBox((F(3, 5), F(1, 10)))
ROUTES = [
    ("torus-fixed-query", lambda: pair_box_prob(TORUS_FIXED, ROUTE_Q, ROUTE_R), (0, 1, 0)),
    ("torus-random-query", lambda: pair_box_prob(TORUS_RANDOM, ROUTE_Q, ROUTE_R), (0, 2, 0)),
    ("torus-marginal", lambda: pair_marginal_prob(TORUS_FIXED, ROUTE_Q, 1), (0, 0, 0)),
    ("none-random-query", lambda: pair_box_prob(NONE_RANDOM, ROUTE_Q, ROUTE_R), (1, 1, 0)),
    ("none-random-marginal", lambda: pair_marginal_prob(NONE_RANDOM, ROUTE_Q, 0), (1, 0, 0)),
    ("none-fixed-query", lambda: pair_box_prob(NONE_FIXED, ROUTE_Q, ROUTE_R), (1, 0, 0)),
    ("none-fixed-marginal", lambda: pair_marginal_prob(NONE_FIXED, ROUTE_R, 1), (1, 0, 0)),
    ("lag-scan", lambda: nuod_scan(GRID_FIXED, 5), (1, 1, 0)),
    ("none-random-scan", lambda: nuod_scan(NONE_RANDOM, 5), (1, 1, 0)),
    ("none-fixed-pairs-csv", lambda: scan_csv(NONE_FIXED, 5), (1, 0, 0)),
    ("factorized-pairs-csv", lambda: scan_csv(lhs_spec(3, 2), 4), (0, 1, 0)),
    ("factorized-certificate", lambda: nuod_scan(lhs_spec(3, 2), 4), (0, 0, 0)),
    ("grid-fixed-query", lambda: pair_box_prob(GRID_FIXED, ROUTE_Q, ROUTE_R), (0, 0, 1)),
    ("grid-fixed-marginal", lambda: pair_marginal_prob(GRID_FIXED, ROUTE_Q, 0), (0, 0, 1)),
]


@pytest.mark.parametrize("call,calls", [case[1:] for case in ROUTES], ids=[case[0] for case in ROUTES])
def test_each_route_reads_the_class_kernel(call, calls, monkeypatch):
    want = call()
    counts = dict.fromkeys(("_class_terms", "_class_sum", "_pair_counts"), 0)
    for name in counts:
        def counted(*args, _name=name, _orig=getattr(mod, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    if not calls[2]:
        def unbuilt(*args, **kwargs):
            raise AssertionError("the cell-pair law was built or contracted")

        monkeypatch.setattr(mod, "_pair_counts", unbuilt)
        monkeypatch.setattr(mod, "_contract", unbuilt)
    assert call() == want
    assert tuple(counts.values()) == calls


# -- one law decision per spec ------------------------------------------------


def _old_law(spec):
    """(position, torus, shift_invariant, factorized, random) as the per-route predicates gave them."""
    latin = spec.kind in ("stratified1d", "lhs", "patterson")
    position = ("midpoint" if spec.kind == "patterson" else
                "corner" if spec.kind == RSJ and not spec.jitter else "jitter")
    torus = spec.kind == RSJ and spec.shift == "continuous_torus"
    shift_invariant = latin or (spec.kind == RSJ and spec.shift == "grid")
    # a random generator has n - 1 values per coordinate, as the latin kinds do
    random = latin or spec.generator == "random"
    factorized = latin or (spec.generator == "random" and spec.shift == "grid")
    return position, torus, shift_invariant, factorized, random


@pytest.mark.parametrize("kind,shift,gen,jitter",
                         list(product(KINDS, SHIFTS, ("random", "fixed"), (True, False))))
def test_law_matches_the_route_predicates(kind, shift, gen, jitter):
    dim = 1 if kind == "stratified1d" else 2
    spec = SchemeSpec(kind, 5, dim, generator="random" if gen == "random" else (1, 2)[:dim],
                      shift=shift, jitter=jitter)
    old = _old_law(spec)
    if old[1] and spec.jitter:
        with pytest.raises(UnsupportedSchemeError, match="combined with jitter"):
            _law(spec)
    else:
        assert tuple(_law(spec)) == old
    if old[1]:
        # a route that needs a cell law refuses a torus shift, jitter or not
        with pytest.raises(UnsupportedSchemeError, match="cell law is undefined"):
            _law(spec, cells=True)
    else:
        assert _law(spec, cells=True) == _law(spec)


@pytest.mark.parametrize("spec", [lhs_spec(1, 2), patterson_spec(1, 2)], ids=["lhs", "patterson"])
def test_one_point_has_no_pair_at_any_budget(spec):
    # n = 1 is refused by _law before any budget is charged, on every route
    box = AnchoredBox((F(0), F(1, 2)))
    calls = [lambda: _pair_query(spec, box, box, budget=0), lambda: pair_marginal_prob(spec, box),
             lambda: _scan(spec, 2, 0), lambda: _pair_counts(spec, budget=0),
             lambda: copula_equality_check(1, 2, spec, budget=0),
             lambda: coordinate_independence_check(1, 2, spec, budget=0)]
    for call in calls:
        with pytest.raises(ValueError, match="a distinct pair needs n >= 2"):
            call()


# -- one law per query ------------------------------------------------------


QUERY = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 1),
         (SchemeSpec(RSJ, 5, 2, shift="none", jitter=False), 0),
         (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 0),
         (full_rsj(5, 2), 0), (TORUS[2], 0)]


@pytest.mark.parametrize("spec,builds", QUERY, ids=[_spec_id(s) for s, _ in QUERY])
def test_pair_query_builds_the_law_once(spec, builds, monkeypatch):
    Q, R = AnchoredBox((F(3, 5), F(1, 3))), AnchoredBox((F(4, 5), F(7, 10)))
    expected = (pair_box_prob(spec, Q, R), pair_marginal_prob(spec, Q, 0),
                pair_marginal_prob(spec, R, 1))
    calls = []
    monkeypatch.setattr(mod, "_pair_counts", lambda *a: calls.append(a) or _pair_counts(*a))
    assert _pair_query(spec, Q, R) == expected
    assert len(calls) == builds


# -- the fixed-distance probe over (generator, b - a) ---------------------------


def oracle_probe_configs(spec, i):
    """Equally likely (x1, x2) positions of an ordered pair in coordinate i."""
    n = spec.n
    if spec.kind == "patterson":
        mids = [F(2 * c + 1, 2 * n) for c in range(n)]
        return [(x1, x2) for x1 in mids for x2 in mids if x1 != x2]
    gens = range(1, n) if spec.generator == "random" else [spec.generator[i]]
    return [(F(g * a % n, n), F(g * b % n, n))
            for g in gens for a in range(n) for b in range(n) if a != b]


def oracle_probe(spec, eps, i):
    """shift_only_conditional over every configuration, or its violation message."""
    configs = oracle_probe_configs(spec, i)
    for x1, x2 in configs:
        d = torus_dist(x1, x2)
        if d <= eps:
            return (f"pair distance {format_rational(d)} <= epsilon {format_rational(eps)} "
                    f"at positions ({format_rational(x1)}, {format_rational(x2)})")
    q, r = eps / 2, 1 - eps / 2
    joint = sum((_shifted_pair_overlap(x1, x2, q, r) for x1, x2 in configs), F(0))
    return joint / (len(configs) * (1 - r))


def _last(spec, i):
    """spec with coordinate i's generator moved last, where the probe looks."""
    if spec.kind != RSJ or spec.generator == "random":
        return spec
    g = list(spec.generator)
    return replace(spec, generator=tuple(g[:i] + g[i + 1:] + [g[i]]))


def _probe(spec, eps, i):
    try:
        return shift_only_conditional(_last(spec, i), eps)
    except HypothesisViolatedError as exc:
        return str(exc)


PROBED = [SchemeSpec(RSJ, n, dim, generator=gen, shift="continuous_torus", jitter=False)
          for n, dim, gen in ((2, 1, "random"), (3, 2, "random"), (5, 2, "random"),
                              (5, 2, (1, 2)), (7, 3, "random"), (7, 3, (1, 3, 6)),
                              (11, 2, (4, 10)))]


@pytest.mark.parametrize("spec", PROBED, ids=[_spec_id(s) for s in PROBED])
def test_probe_matches_configuration_oracle(spec):
    # every epsilon k/(4n) in (0, 1/2], on and off the lattice distances,
    # violation messages included
    n = spec.n
    for k in range(1, 2 * n + 1):
        eps = F(k, 4 * n)
        for i in range(spec.dim):
            assert _probe(spec, eps, i) == oracle_probe(spec, eps, i), (eps, i)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
def test_patterson_probe_matches_midpoint_oracle(n):
    # n need not be prime; a violation now names the difference (0/1, k/n)
    # rather than two midpoints, so compare values and the violated distance
    spec = patterson_spec(n, 2)
    for k in range(1, 2 * n + 1):
        eps = F(k, 4 * n)
        want = oracle_probe(spec, eps, 1)
        got = _probe(spec, eps, 1)
        if isinstance(want, F):
            assert got == want
        else:
            assert got.split(" at ")[0] == want.split(" at ")[0]
            assert got.endswith(f"at positions (0/1, {format_rational(F(1, n))})")


def test_probe_budget_counts_generator_differences():
    # the premise floor(eps n) == 0 is decided with no budget; only a
    # violation searches the n - 1 differences of the probed coordinate's
    # first generator value, a random generator included
    for spec in (PROBED[4], PROBED[5], patterson_spec(6, 2)):
        n = spec.n
        assert shift_only_conditional(spec, F(1, 2 * n), budget=0) == 1
        with pytest.raises(mod.BudgetExceededError, match=f" {n - 1} terms"):
            shift_only_conditional(spec, F(1, n), budget=n - 2)
        with pytest.raises(HypothesisViolatedError):
            shift_only_conditional(spec, F(1, n), budget=n - 1)
    big = SchemeSpec(RSJ, 10000019, 2, shift="continuous_torus", jitter=False)
    assert shift_only_conditional(big, F(1, 2 * big.n), budget=0) == 1


def test_probe_runs_no_class_sum(monkeypatch):
    # under its premise the conditional is 1 in closed form: no torus class
    # sum runs, and a violation keeps its message
    def unsummed(*args):
        raise AssertionError("the fixed-distance probe summed torus classes")

    monkeypatch.setattr(mod, "_continuous_shift_box_prob", unsummed)
    for spec in PROBED + [patterson_spec(n, 2) for n in (2, 5, 6)]:
        n = spec.n
        for i in range(spec.dim):
            # every pair distance is at least 1/n, above 1/(2n) and not above 1/n
            assert shift_only_conditional(_last(spec, i), F(1, 2 * n)) == 1
            with pytest.raises(HypothesisViolatedError) as exc:
                shift_only_conditional(_last(spec, i), F(1, n))
            want = (oracle_probe(spec, F(1, n), i) if spec.kind == RSJ else
                    f"pair distance 1/{n} <= epsilon 1/{n} at positions (0/1, 1/{n})")
            assert str(exc.value) == want


# -- triple containment and no-shift mass, counted per coordinate ------------


def oracle_lattice_count(n, dim, a, b):
    """Distinct shifted lattices containing both a and b, one frozenset each."""
    seen = set()
    for g in product(range(1, n), repeat=dim):
        for s in product(range(n), repeat=dim):
            pts = frozenset(
                tuple((g[i] * m + s[i]) % n for i in range(dim)) for m in range(n)
            )
            if a in pts and b in pts:
                seen.add(pts)
    return len(seen)


def _triples():
    # the criterion-5 cases, then random coordinatewise-distinct pairs
    cases = [(5, 2, (0, 0), (1, 2)), (5, 3, (0, 0, 0), (1, 2, 3)), (7, 2, (0, 0), (1, 2))]
    rnd = random.Random(5)
    for n, dim in ((5, 2), (5, 3), (7, 2)):
        for _ in range(4):
            a = tuple(rnd.randrange(n) for _ in range(dim))
            cases.append((n, dim, a, tuple((v + rnd.randrange(1, n)) % n for v in a)))
    return cases


TRIPLES = _triples()
# sizes whose latin oracle (n!^(dim - 1) permutation tuples) would take too long
LATTICE_ONLY = [(11, 2, (3, 9), (10, 0)), (7, 3, (6, 0, 2), (1, 4, 5))]


@pytest.mark.parametrize("n,dim,a,b", TRIPLES + LATTICE_ONLY,
                         ids=[f"{n}-{d}-{a}-{b}" for n, d, a, b in TRIPLES + LATTICE_ONLY])
def test_triple_lattice_count_matches_frozenset_oracle(n, dim, a, b):
    assert triple_distinguisher(n, dim, a, b)[0] == oracle_lattice_count(n, dim, a, b)


def oracle_latin_count(n, dim, a, b):
    """Latin grids containing both a and b, over every tuple of dim - 1 permutations."""
    count = 0
    for sigmas in product(permutations(range(n)), repeat=dim - 1):
        if all(sig[a[0]] == a[i + 1] and sig[b[0]] == b[i + 1] for i, sig in enumerate(sigmas)):
            count += 1
    return count


@pytest.mark.parametrize("n,dim,a,b", TRIPLES, ids=[f"{n}-{d}-{a}-{b}" for n, d, a, b in TRIPLES])
def test_triple_latin_count_matches_permutation_oracle(n, dim, a, b):
    assert triple_distinguisher(n, dim, a, b)[1] == oracle_latin_count(n, dim, a, b)


def test_triple_budget_counts_latin_limb_products():
    # the latin count 1007!^3 at (1009, 4) has at most 3 * 1007 * 10 = 30210
    # bits, 1007 limbs of 30 bits, so its decimal form costs 1007^2 limb
    # products; the one lattice and the (n - 2)! permutations per
    # coordinate are not counted
    a, b = (0, 0, 0, 0), (1, 2, 3, 4)
    with pytest.raises(mod.BudgetExceededError,
                       match="latin count too large: 1014049 limb products exceeds budget 1014048"):
        triple_distinguisher(1009, 4, a, b, budget=1014048)
    assert triple_distinguisher(1009, 4, a, b, budget=1014049) == (1, factorial(1007) ** 3)


def test_triple_builds_no_lattice():
    # one lattice by the uniqueness argument and the latin count in closed
    # form: nothing the size of n (n - 1) dim = 4.07e6 cells is allocated
    triple_distinguisher(11, 2, (0, 0), (1, 2))
    tracemalloc.start()
    try:
        count = triple_distinguisher(1009, 4, (0, 0, 0, 0), (1, 2, 3, 4))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 100_000


def test_triple_refuses_a_latin_count_too_long_to_print():
    # (5, 200000): 6^199999 has 516 990 bits, bounded by 1.6e9 limb products
    with pytest.raises(mod.BudgetExceededError, match="1600000000 limb products"):
        triple_distinguisher(5, 200000, (0,) * 200000, (1,) * 200000)


def oracle_no_shift_mass(n, dim):
    """P(cell vector 0) over every (generator, point index) of the unshifted lattice."""
    hits = terms = 0
    for g in product(range(1, n), repeat=dim):
        for m in range(n):
            hits += all(gi * m % n == 0 for gi in g)
            terms += 1
    return F(hits, terms)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
def test_no_shift_mass_matches_enumeration_oracle(n):
    for dim in range(1, 5):
        assert no_shift_mass(n, dim) == oracle_no_shift_mass(n, dim) == F(1, n)
