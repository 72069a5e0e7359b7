"""The exact routes against the direct computations they replaced.

The oracle functions below are the analyzer's earlier, direct forms:

  * the per-term Fraction weighting loops of the box probabilities and the
    scan, which weight every pmf entry of the cell-pair law by the exact
    in-cell overlap of each anchored interval, one Fraction at a time;
  * the enumerator of the lattice law, one bincount per ordered index pair
    over every (generator, grid shift) row;
  * the copula and independence checks on Fraction pmf dicts;
  * the torus-shift integration over every ordered index pair;
  * the Fraction cell weights behind the integer weight tables;
  * the fixed-distance probe over every (generator, a, b) configuration;
  * the closed-form per-coordinate scan tables, one Fraction per anchor pair;
  * the triple-containment lattice count, one frozenset per lattice;
  * the triple-containment latin count, over every tuple of permutations;
  * the pairs table written row by row, format_rational and csv.writer per
    row of scan_pairs_rows.

They stay here as the reference; results must match exactly, witness dicts
included.  The scan's one-factor route is also pinned against its
per-coordinate factors, and nuod_scan's per-factor certificate against the
expansion over every box pair.
"""

import csv
import io
import random
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

import numpy as np
import pytest

import negdep.analyzer as mod
from negdep.analyzer import (
    AnchoredBox,
    DependenceReport,
    HypothesisViolatedError,
    _certified,
    _contract,
    _grid_anchors,
    _nuod_witnesses,
    _pair_counts,
    _pair_query,
    _pair_tables,
    _pairs_csv,
    _scan_witnesses,
    _shifted_pair_overlap,
    _weight_table,
    copula_equality_check,
    coordinate_independence_check,
    discrete_pair_pmf,
    nuod_scan,
    pair_box_prob,
    pair_marginal_prob,
    patterson_marginal_factor,
    patterson_pair_factor,
    scan_pairs_rows,
    shift_only_conditional,
    stratified_pair_box_prob,
    triple_distinguisher,
)
from negdep.exact import format_rational, torus_dist
from negdep.schemes import SchemeSpec, full_rsj, lhs_spec, patterson_spec, stratified_spec

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


def oracle_scan(spec, m):
    """(worst, witnesses) of the k/m grid scan, witnesses in report order."""
    law = law_of(spec)
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


def one_factor(spec):
    """The law as one count factor over every coordinate."""
    return [(*_pair_counts(spec), spec.dim)]


@pytest.mark.parametrize("spec,m", [(full_rsj(3, 2), 6), (lhs_spec(4, 2), 8), (full_rsj(3, 3), 3),
                                    (patterson_spec(3, 2), 6), (stratified_spec(5), 10)])
def test_enumerated_route_matches_closed_form(spec, m):
    # one count factor over every coordinate against one per coordinate,
    # over every box pair of the grid, joint and product alike
    anchors = _grid_anchors(m)
    enumerated = _pair_tables(spec, anchors, 10**8, factors=one_factor(spec))
    assert _table(enumerated) == _table(_pair_tables(spec, anchors, 10**8))
    enumerated = _pair_tables(spec, anchors, 10**8, factors=one_factor(spec))
    assert _scan_witnesses(spec, anchors, enumerated) == []


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
    assert _table(_pair_tables(spec, anchors, 10**8)) == want


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


def test_budget_counts_kernel_work():
    # per factor c B (c + B) multiply-adds, c cell vectors and B boxes, plus
    # one comparison per box pair: one factor over both coordinates here
    spec, m = SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5
    work = 5**4 * 5**2 + 5**2 * 5**4 + 5**4
    with pytest.raises(mod.BudgetExceededError, match="multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    with pytest.raises(mod.BudgetExceededError):
        list(scan_pairs_rows(spec, m, budget=work - 1))
    assert nuod_scan(spec, m, budget=work).worst_violation == F(1, 625)


def test_budget_counts_factorized_work():
    # one factor per coordinate: nuod_scan contracts and compares each,
    # 2 x (3 * 6 * (3 + 6) + 6^2); scan_pairs_rows contracts them and
    # expands all 6^4 box pairs, 2 x 3 * 6 * (3 + 6) + 6^4
    spec, m = lhs_spec(3, 2), 6
    work = 2 * (3 * 6 * 9 + 36)
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    assert nuod_scan(spec, m, budget=work).ok
    work = 2 * 3 * 6 * 9 + 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        list(scan_pairs_rows(spec, m, budget=work - 1))
    assert len(list(scan_pairs_rows(spec, m, budget=work))) == 6**4


def expanded_report(spec, m):
    """nuod_scan's report from the expansion over every box pair."""
    anchors = _grid_anchors(m)
    witnesses = _scan_witnesses(spec, anchors, _pair_tables(spec, anchors, 10**8))
    return DependenceReport.from_witnesses(spec, m, witnesses)


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


def _kron_factors(factors):
    """The law of count factors as one factor over all their coordinates."""
    P, total, k = np.ones((1, 1), dtype=np.int64), 1, 0
    for P_f, total_f, k_f in factors:
        P, total, k = np.kron(P, P_f), total * total_f, k + k_f
    return [(P, total, k)]


# ordered distinct cells of one coordinate (negatively dependent), and both
# points in the same cell (positively dependent: fails the certificate)
DISTINCT = (1 - np.eye(3, dtype=np.int64), 6, 1)
SAME = (np.eye(3, dtype=np.int64), 3, 1)
FAILING = [(lhs_spec(3, 2), 6, [DISTINCT, SAME]), (lhs_spec(3, 2), 6, [SAME, DISTINCT]),
           (lhs_spec(3, 3), 4, [DISTINCT, SAME, DISTINCT]),
           (patterson_spec(3, 3), 3, [SAME, DISTINCT, DISTINCT])]


@pytest.mark.parametrize("spec,m,factors", FAILING, ids=[f"{s.kind}(3,{s.dim})-{i}"
                                                          for i, (s, _, _) in enumerate(FAILING)])
def test_failing_certificate_falls_back_to_expansion(spec, m, factors):
    anchors = _grid_anchors(m)
    assert not _certified(_contract(spec, anchors, 10**8, factors))
    fallback = _nuod_witnesses(spec, anchors, 10**8, factors)
    expanded = _scan_witnesses(spec, anchors, _pair_tables(spec, anchors, 10**8, factors=factors))
    one = _pair_tables(spec, anchors, 10**8, factors=_kron_factors(factors))
    assert fallback == expanded == _scan_witnesses(spec, anchors, one)
    assert fallback


# p1 in a lower cell than p2: an asymmetric count factor, so the two
# marginals differ (the law of every scheme is exchangeable)
LOWER = (np.triu(np.ones((3, 3), dtype=np.int64), 1), 3, 1)


@pytest.mark.parametrize("factors", [[LOWER, DISTINCT], [DISTINCT, LOWER], [LOWER, LOWER],
                                     _kron_factors([LOWER, DISTINCT])],
                         ids=["lower-distinct", "distinct-lower", "lower-lower", "one-factor"])
def test_queries_keep_the_sides_of_the_law(factors, monkeypatch):
    # joint and both marginals of an asymmetric law against Fraction sums
    spec = lhs_spec(3, 2)
    monkeypatch.setattr(mod, "_count_factors", lambda spec, budget: factors)
    [(P, total, _)] = _kron_factors(factors)
    cells = list(product(range(3), repeat=2))

    def weight(z, box):
        return prod(_cell_weight(c, q, 3, "jitter") for c, q in zip(z, box.anchor))

    rnd = random.Random(3)
    for _ in range(6):
        Q, R = (AnchoredBox(_anchors(rnd, 3, 2)) for _ in range(2))
        joint = sum(F(int(P[i, j]), total) * weight(z1, Q) * weight(z2, R)
                    for i, z1 in enumerate(cells) for j, z2 in enumerate(cells))
        m1 = sum(F(int(P[i].sum()), total) * weight(z, Q) for i, z in enumerate(cells))
        m2 = sum(F(int(P[:, j].sum()), total) * weight(z, R) for j, z in enumerate(cells))
        assert _pair_query(spec, Q, R) == (joint, m1, m2)
        assert pair_box_prob(spec, Q, R) == joint
        assert (pair_marginal_prob(spec, Q, 0), pair_marginal_prob(spec, R, 1)) == (m1, m2)


def test_budget_counts_failing_certificate_expansion():
    # the contraction and factor comparisons, 2 x (3 * 6 * (3 + 6) + 6^2),
    # are checked first; the expansion's 6^4 box pairs on top before it runs
    spec, m, factors = FAILING[0]
    anchors = _grid_anchors(m)
    work = 2 * (3 * 6 * 9 + 36)
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        _nuod_witnesses(spec, anchors, work - 1, factors)
    work += 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        _nuod_witnesses(spec, anchors, work - 1, factors)
    assert _nuod_witnesses(spec, anchors, work, factors) == _nuod_witnesses(spec, anchors, 10**8,
                                                                            factors)


def test_block_size_does_not_change_results(monkeypatch):
    # many small blocks, split inside a row group, and blocks spanning
    # several groups of last-factor rows: the same reports and rows
    cases = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 5), (full_rsj(3, 2), 6), (lhs_spec(3, 3), 3),
             (lhs_spec(3, 3), 4), (patterson_spec(3, 2), 4)]
    whole = [(nuod_scan(s, m), list(scan_pairs_rows(s, m))) for s, m in cases]
    for block in (7, 5 * 27):
        monkeypatch.setattr(mod, "_BLOCK", block)
        assert [(nuod_scan(s, m), list(scan_pairs_rows(s, m))) for s, m in cases] == whole
    assert not whole[0][0].ok


# -- the pairs table in bulk ---------------------------------------------------


def oracle_pairs_csv(spec, m):
    """The pairs table as the CLI wrote it row by row, and its witnesses."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Q", "R", "joint", "product", "violation"])
    witnesses = []
    for Q, R, joint, prodv, bad in scan_pairs_rows(spec, m):
        writer.writerow([";".join(format_rational(a) for a in Q.anchor),
                         ";".join(format_rational(a) for a in R.anchor),
                         format_rational(joint), format_rational(prodv), bad])
        if bad:
            witnesses.append((Q, R, joint, prodv))
    return buf.getvalue(), witnesses


# the criterion-3 scans with at most 1e5 box pairs, the pairs-CSV scans of the
# exact-scan benchmark, and a lattice with witnesses
PAIRS_CSV = [(spec, m) for spec, m in CERTIFIED[:24] if m ** (2 * spec.dim) <= 10**5]
PAIRS_CSV += [(SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5), (lhs_spec(4, 2), 8),
              (SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 10)]


@pytest.mark.parametrize("spec,m", PAIRS_CSV, ids=[f"{_spec_id(s)}-M={m}" for s, m in PAIRS_CSV])
def test_pairs_csv_matches_row_oracle(spec, m):
    got, want = _pairs_csv(spec, m), oracle_pairs_csv(spec, m)
    assert_same_pairs_csv(got, want)
    report = DependenceReport.from_witnesses(spec, m, got[1])
    assert report == DependenceReport.from_witnesses(spec, m, want[1]) == nuod_scan(spec, m)


def assert_same_pairs_csv(got, want):
    # lines, not whole texts: pytest's diff of two long unequal texts is very slow
    assert got[0].splitlines(keepends=True) == want[0].splitlines(keepends=True)
    assert got[1] == want[1]


def test_pairs_csv_python_int_path_and_blocks(monkeypatch):
    # every table in python ints, and blocks that split the rows of a Q box
    cases = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 10), (lhs_spec(4, 2), 8),
             (patterson_spec(3, 3), 5), (SchemeSpec(RSJ, 7, 2, shift="none", jitter=False), 7)]
    want = [oracle_pairs_csv(s, m) for s, m in cases]
    assert want[0][1] and want[3][1]
    monkeypatch.setattr(mod, "_INT64_SAFE_LIMIT", 1)
    _, blocks = _pair_tables(cases[0][0], _grid_anchors(10), 10**8)
    assert next(blocks)[1].dtype == object
    for block in (1 << 15, 7):
        monkeypatch.setattr(mod, "_BLOCK", block)
        for (s, m), w in zip(cases, want):
            assert_same_pairs_csv(_pairs_csv(s, m), w)


def test_pairs_csv_budget_matches_rows():
    spec, m = lhs_spec(3, 2), 6
    work = 2 * (3 * 6 * 9) + 6**4
    with pytest.raises(mod.BudgetExceededError, match=f"{work} multiply-adds"):
        _pairs_csv(spec, m, budget=work - 1)
    assert_same_pairs_csv(_pairs_csv(spec, m, budget=work), oracle_pairs_csv(spec, m))


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
    # the terms of the class sum plus the n^(2 dim) entries of P: (n - 1)
    # n^dim difference classes under a grid shift, n (n - 1) |generators|
    # table nonzeros without one, n^dim for lhs
    for spec, work in ((full_rsj(5, 2), 4 * 5**2 + 5**4),
                       (SchemeSpec(RSJ, 5, 2, generator=(1, 2), shift="none"), 20 + 5**4),
                       (SchemeSpec(RSJ, 5, 2, shift="none"), 20 * 4**2 + 5**4),
                       (lhs_spec(4, 2), 4**2 + 4**4)):
        with pytest.raises(mod.BudgetExceededError, match=f"{work} terms"):
            discrete_pair_pmf(spec.n, spec.dim, spec, budget=work - 1)
        discrete_pair_pmf(spec.n, spec.dim, spec, budget=work)


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
    # pair in support order, (2, 1), is not its smallest code
    n, pairs = 3, [((2, 1), (0, 1)), ((0, 1), (1, 2)), ((1, 0), (2, 0))]
    monkeypatch.setattr(mod, "_law_counts", lambda *args: _xor_counts(n, pairs))
    spec = full_rsj(n, 3)
    rep = coordinate_independence_check(n, 3)
    ok, witness = oracle_independence(spec)
    assert not ok and witness["subset"] == (0, 1, 2) and witness["cells"][0] == (2, 1)
    assert (rep.ok, rep.witness) == (ok, witness)
    assert repr(rep.witness) == repr(witness)


def test_law_build_and_structural_check_memory_peaks():
    # the law of full_rsj(7,3) is 343 x 343 int64, 0.94 MB; the build holds
    # no n^(2d) index array or second copy, and the checks hold a few laws
    law_bytes = 7**6 * 8
    peaks = []
    for call in (lambda: _pair_counts(full_rsj(7, 3)),
                 lambda: coordinate_independence_check(7, 3),
                 lambda: copula_equality_check(7, 3)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / law_bytes)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.5 and max(peaks[1:]) <= 3.5, peaks


# -- the torus route over delta = b - a ---------------------------------------


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
    # dim x |generators| x (n - 1)
    box = AnchoredBox((F(1, 3), F(2, 5)))
    for gen, work in (("random", 2 * 4 * 4), ((1, 3), 2 * 1 * 4)):
        spec = SchemeSpec(RSJ, 5, 2, generator=gen, shift="continuous_torus", jitter=False)
        with pytest.raises(mod.BudgetExceededError, match=f"{work} terms"):
            pair_box_prob(spec, box, box, budget=work - 1)
        pair_box_prob(spec, box, box, budget=work)


LARGE = [lhs_spec(100003, 2), full_rsj(100003, 2), patterson_spec(100003, 2),
         stratified_spec(100003)]


@pytest.mark.parametrize("spec", LARGE, ids=[_spec_id(s) for s in LARGE])
def test_large_factorized_query_matches_closed_form(spec):
    # the distinct-cells factors are applied in O(n) per coordinate, never built
    Q = AnchoredBox((F(1, 3), F(12345, 100003))[:spec.dim])
    R = AnchoredBox((F(2, 7), F(1, 2))[:spec.dim])
    closed = pair_box_prob(spec, Q, R, method="closed_form")
    assert pair_box_prob(spec, Q, R) == closed
    assert _pair_query(spec, Q, R)[0] == closed


def test_factorized_query_budget_counts_cells():
    # dim x n cells: the weight column of each coordinate
    spec, box = lhs_spec(1000, 2), AnchoredBox((F(1, 3), F(2, 5)))
    for query in (lambda b: pair_box_prob(spec, box, box, budget=b),
                  lambda b: pair_marginal_prob(spec, box, 1, budget=b),
                  lambda b: _pair_query(spec, box, box, budget=b)):
        with pytest.raises(mod.BudgetExceededError, match="2000 cells"):
            query(1999)
        query(2000)


@pytest.mark.parametrize("side", [-1, 2])
def test_marginal_side_must_be_zero_or_one(side):
    with pytest.raises(ValueError, match="side"):
        pair_marginal_prob(lhs_spec(3, 2), AnchoredBox((F(1, 3), F(1, 2))), side)


# -- one law per query ------------------------------------------------------


QUERY = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 1),
         (SchemeSpec(RSJ, 5, 2, shift="none", jitter=False), 1),
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


def _probe(spec, eps, i):
    try:
        return shift_only_conditional(spec, eps, dim_index=i)
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
    # |generators of the probed coordinate| x (n - 1) terms
    for spec, work in ((PROBED[4], 6 * 6), (PROBED[5], 1 * 6), (patterson_spec(6, 2), 1 * 5)):
        with pytest.raises(mod.BudgetExceededError, match=f"{work} terms"):
            shift_only_conditional(spec, F(1, 100), budget=work - 1)
        shift_only_conditional(spec, F(1, 100), budget=work)


# -- triple containment counts as sorted code rows ----------------------------


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


@pytest.mark.parametrize("n,dim,a,b", TRIPLES, ids=[f"{n}-{d}-{a}-{b}" for n, d, a, b in TRIPLES])
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


def test_triple_budget_counts_lattices_only():
    # the (n-1)^dim n^dim = 1764 lattices at (7, 2); the latin count is
    # (n - 2)!^(dim - 1) and enumerates nothing, so the 7! = 5040
    # permutations of a coordinate do not count
    with pytest.raises(mod.BudgetExceededError, match="lattice"):
        triple_distinguisher(7, 2, (0, 0), (1, 2), budget=1763)
    assert triple_distinguisher(7, 2, (0, 0), (1, 2), budget=1764) == (1, 120)
    assert triple_distinguisher(7, 2, (0, 0), (1, 2), budget=5039) == (1, 120)


def test_triple_count_does_not_depend_on_block(monkeypatch):
    # one generator per block, and a few generators per block
    whole = [triple_distinguisher(*case) for case in TRIPLES]
    for block in (1, 3 * 5**3 * 5):
        monkeypatch.setattr(mod, "_CODE_BLOCK", block)
        assert [triple_distinguisher(*case) for case in TRIPLES] == whole
