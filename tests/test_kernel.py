"""The integer kernel against the Fraction loops it replaced, and the
enumerated route against the closed form.

The oracle functions below are the per-term Fraction weighting loops that
the analyzer used before the kernel: every pmf entry of the cell-pair law is
weighted by the exact in-cell overlap of each anchored interval, one
Fraction product at a time.  They stay here as the reference; results must
match the kernel exactly.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import negdep.analyzer as mod
from negdep.analyzer import (
    AnchoredBox,
    _cell_weight,
    _enumerated_tables,
    _factorized_tables,
    _grid_anchors,
    _scan_witnesses,
    discrete_pair_pmf,
    nuod_scan,
    pair_box_prob,
    pair_marginal_prob,
    scan_pairs_rows,
)
from negdep.schemes import SchemeSpec, full_rsj, lhs_spec

RSJ = "rsj_lattice"


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


QUERIED = [s for s, _ in ENUMERATED] + [
    SchemeSpec(RSJ, 7, 3, generator=(1, 2, 3)),
    SchemeSpec(RSJ, 7, 2, shift="none", jitter=False),
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
    # anchor denominators push the common denominator past int64
    spec = SchemeSpec(RSJ, 5, 2, generator=(1, 2))
    law = law_of(spec)
    Q = AnchoredBox((F(2**33, 2**35 + 1), F(3, 7)))
    R = AnchoredBox((F(3**20, 3**21 + 2), F(2**31 - 1, 2**33 + 3)))
    assert pair_box_prob(spec, Q, R) == oracle_box_prob(law, Q, R)
    assert pair_marginal_prob(spec, R, 1) == oracle_marginal_prob(law, R, 1)


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


@pytest.mark.parametrize("spec,m", [(full_rsj(3, 2), 6), (lhs_spec(4, 2), 8), (full_rsj(3, 3), 3)])
def test_enumerated_route_matches_closed_form(spec, m):
    # both routes over every box pair of the grid, joint and product alike
    anchors = _grid_anchors(m)
    enumerated = _enumerated_tables(spec, anchors, 10**8, 1)
    assert _table(enumerated) == _table(_factorized_tables(spec, anchors, 10**8))
    assert _scan_witnesses(spec, anchors, _enumerated_tables(spec, anchors, 10**8, 1)) == []


@pytest.mark.parametrize("spec", [full_rsj(3, 2), lhs_spec(4, 2)])
def test_enumeration_method_matches_closed_form(spec):
    anchors = [F(k, 3 * spec.n) for k in range(0, 3 * spec.n, 2)]
    for qa in product(anchors, repeat=spec.dim):
        R = AnchoredBox((F(1, 3),) + qa[1:])
        Q = AnchoredBox(qa)
        assert (pair_box_prob(spec, Q, R, method="enumeration")
                == pair_box_prob(spec, Q, R, method="closed_form"))


def test_budget_counts_kernel_work():
    # n^(2d) M^d for P A plus n^d M^(2d) for A^T (P A)
    spec, m = SchemeSpec(RSJ, 5, 2, generator=(1, 2)), 5
    work = 5**4 * 5**2 + 5**2 * 5**4
    with pytest.raises(mod.BudgetExceededError, match="multiply-adds"):
        nuod_scan(spec, m, budget=work - 1)
    with pytest.raises(mod.BudgetExceededError):
        list(scan_pairs_rows(spec, m, budget=work - 1))
    assert nuod_scan(spec, m, budget=work).worst_violation == F(1, 625)


def test_block_size_does_not_change_results(monkeypatch):
    # many small blocks, split inside a row group: the same reports and rows
    cases = [(SchemeSpec(RSJ, 5, 2, generator=(1, 1)), 5), (full_rsj(3, 2), 6), (lhs_spec(3, 3), 3)]
    whole = [(nuod_scan(s, m), list(scan_pairs_rows(s, m))) for s, m in cases]
    monkeypatch.setattr(mod, "_BLOCK", 7)
    assert [(nuod_scan(s, m), list(scan_pairs_rows(s, m))) for s, m in cases] == whole
    assert not whole[0][0].ok
