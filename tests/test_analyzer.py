from decimal import Decimal
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from negdep.analyzer import (
    AnchoredBox,
    BudgetExceededError,
    UnsupportedSchemeError,
    _pair_counts,
    pair_box_prob,
    pair_marginal_prob,
    shift_only_conditional,
    stratified_pair_box_prob,
    triple_distinguisher,
)
from negdep.schemes import SchemeSpec, full_rsj, lhs_spec, patterson_spec
from test_kernel import PairLaw, discrete_pair_pmf, patterson_marginal_factor, patterson_pair_factor


def oracle(q, r, n):
    """Independent brute force: ordered stratum pairs weighted by overlap."""
    q, r = F(q), F(r)

    def w(c, x):
        lo, hi = max(F(c, n), x), F(c + 1, n)
        return (hi - lo) * n if hi > lo else F(0)

    total = sum(
        w(j, q) * w(k, r) for j in range(n) for k in range(n) if j != k
    )
    return total / (n * (n - 1))


class TestStratifiedPairBoxProb:
    def test_q_zero_gives_marginal(self):
        for n in (2, 5, 8):
            for r in (F(0), F(1, 3), F(7, 10)):
                assert stratified_pair_box_prob(F(0), r, n) == 1 - r

    def test_spec_values(self):
        # frozen from the oracle
        assert stratified_pair_box_prob(F(3, 10), F(6, 10), 4) == F(6, 25)
        assert stratified_pair_box_prob(F(1, 4), F(1, 4), 2) == F(1, 2)

    def test_symmetry(self):
        for n in (3, 5):
            for kq in range(2 * n):
                for kr in range(2 * n):
                    q, r = F(kq, 2 * n), F(kr, 2 * n)
                    assert stratified_pair_box_prob(q, r, n) == stratified_pair_box_prob(r, q, n)

    def test_matches_oracle_on_coarse_grid(self):
        for n in (2, 3, 4, 7):
            for kq in range(3 * n):
                for kr in range(3 * n):
                    q, r = F(kq, 3 * n), F(kr, 3 * n)
                    assert stratified_pair_box_prob(q, r, n) == oracle(q, r, n)

    def test_bounded_by_independent_product(self):
        for n in (2, 5):
            for kq in range(4 * n):
                for kr in range(4 * n):
                    q, r = F(kq, 4 * n), F(kr, 4 * n)
                    assert stratified_pair_box_prob(q, r, n) <= (1 - q) * (1 - r)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stratified_pair_box_prob(F(1), F(0), 4)
        with pytest.raises(ValueError):
            stratified_pair_box_prob(F(0), F(0), 1)


class TestPattersonFactors:
    def test_midpoint_counting(self):
        # n=5 midpoints 1/10,...,9/10
        assert patterson_marginal_factor(F(0), 5) == 1
        assert patterson_marginal_factor(F(1, 2), 5) == F(3, 5)
        assert patterson_marginal_factor(F(9, 10), 5) == F(1, 5)
        assert patterson_marginal_factor(F(95, 100), 5) == 0

    def test_pair_factor_oracle(self):
        # direct sum over ordered distinct midpoint pairs
        n = 5
        mids = [F(2 * c + 1, 2 * n) for c in range(n)]
        for kq in range(2 * n):
            for kr in range(2 * n):
                q, r = F(kq, 2 * n), F(kr, 2 * n)
                want = sum(
                    F(1, n * (n - 1))
                    for x1 in mids
                    for x2 in mids
                    if x1 != x2 and x1 >= q and x2 >= r
                )
                assert patterson_pair_factor(q, r, n) == want


class TestDiscretePairPmf:
    def test_full_lattice_uniform_small(self):
        for n, d in ((3, 2), (5, 1)):
            law = discrete_pair_pmf(n, d)
            expect = F(1, (n * (n - 1)) ** d)
            assert all(p == expect for p in law.pmf.values())
            assert len(law.pmf) == (n * (n - 1)) ** d

    def test_matches_pure_python_reference(self):
        # independent reference enumeration, no numpy
        n, d = 3, 2
        ref = {}
        total = 0
        for g in product(range(1, n), repeat=d):
            for s in product(range(n), repeat=d):
                for a in range(n):
                    for b in range(n):
                        if a == b:
                            continue
                        z1 = tuple((g[i] * a + s[i]) % n for i in range(d))
                        z2 = tuple((g[i] * b + s[i]) % n for i in range(d))
                        ref[(z1, z2)] = ref.get((z1, z2), 0) + 1
                        total += 1
        law = discrete_pair_pmf(n, d)
        assert law.pmf == {k: F(v, total) for k, v in ref.items()}

    def test_fixed_generator_diagonal_support(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        law = discrete_pair_pmf(5, 2, spec)
        for (z1, z2) in law.pmf:
            deltas = {(a - b) % 5 for a, b in zip(z1, z2)}
            assert len(deltas) == 1  # cell difference lies on the diagonal

    def test_lhs_pmf_uniform(self):
        law = discrete_pair_pmf(4, 2, lhs_spec(4, 2))
        assert all(p == F(1, 144) for p in law.pmf.values())
        assert len(law.pmf) == 144

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError, match="too large"):
            _pair_counts(full_rsj(7, 3), budget=1000)

    def test_continuous_shift_has_no_cell_law(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        with pytest.raises(UnsupportedSchemeError):
            _pair_counts(spec)

    def test_pmf_validation(self):
        law = discrete_pair_pmf(3, 1)
        law.validate()
        bad = PairLaw(spec=full_rsj(3, 1), n=3, dim=1,
                      pmf={((0,), (0,)): F(1)}, position="jitter")
        with pytest.raises(ValueError):
            bad.validate()


class TestPairBoxProb:
    def test_full_cube_returns_marginal(self):
        for spec in (full_rsj(5, 2), lhs_spec(4, 3)):
            Q = AnchoredBox((F(0),) * spec.dim)
            R = AnchoredBox((F(1, 3),) * spec.dim)
            assert pair_box_prob(spec, Q, R) == R.volume()

    def test_fixed_generator_counterexample(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        Q = AnchoredBox((F(3, 5), F(3, 5)))
        R = AnchoredBox((F(4, 5), F(4, 5)))
        assert pair_box_prob(spec, Q, R) == F(1, 100)
        prodv = pair_marginal_prob(spec, Q, 0) * pair_marginal_prob(spec, R, 1)
        assert prodv == F(4, 625)

    def test_full_rsj_closed_form_vs_enumeration(self):
        # exact agreement of the two routes on all 1/(2N)-grid box pairs
        for n in (3, 5):
            spec = full_rsj(n, 2)
            anchors = [F(k, 2 * n) for k in range(0, 2 * n, 3)]
            for qa in anchors:
                for ra in anchors:
                    Q = AnchoredBox((qa, F(1, 2 * n)))
                    R = AnchoredBox((ra, F(3, 2 * n)))
                    closed = pair_box_prob(spec, Q, R, method="closed_form")
                    enum = pair_box_prob(spec, Q, R, method="enumeration")
                    assert closed == enum

    def test_full_rsj_product_of_factors(self):
        spec = full_rsj(5, 2)
        Q = AnchoredBox((F(3, 5), F(3, 5)))
        R = AnchoredBox((F(4, 5), F(4, 5)))
        factor = stratified_pair_box_prob(F(3, 5), F(4, 5), 5)
        assert pair_box_prob(spec, Q, R) == factor * factor == F(1, 400)

    def test_patterson_closed_vs_enumeration(self):
        spec = patterson_spec(5, 2)
        Q = AnchoredBox((F(1, 4), F(1, 2)))
        R = AnchoredBox((F(3, 5), F(1, 10)))
        assert (pair_box_prob(spec, Q, R, method="closed_form")
                == pair_box_prob(spec, Q, R, method="enumeration"))

    def test_monotone_in_anchor(self):
        # shrinking Q never increases the joint probability
        specs = [full_rsj(5, 2), lhs_spec(4, 2), patterson_spec(4, 2),
                 SchemeSpec("rsj_lattice", 5, 2, generator=(1, 2))]
        R = AnchoredBox((F(1, 3), F(2, 3)))
        for spec in specs:
            n = spec.n
            prev = None
            for k in range(2 * n):
                Q = AnchoredBox((F(k, 2 * n), F(1, 4)))
                cur = pair_box_prob(spec, Q, R)
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_jitterless_grid_corner_model(self):
        spec = SchemeSpec("rsj_lattice", 5, 1, jitter=False)
        # P(p1 >= 0, p2 >= 4/5): p2 must sit exactly on cell 4
        val = pair_box_prob(spec, AnchoredBox((F(0),)), AnchoredBox((F(4, 5),)))
        assert val == F(1, 5)
        # anchor just above the last corner excludes everything
        val = pair_box_prob(spec, AnchoredBox((F(0),)), AnchoredBox((F(9, 10),)))
        assert val == 0

    def test_continuous_shift_with_jitter_unsupported(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=True)
        Q = AnchoredBox((F(0), F(0)))
        with pytest.raises(UnsupportedSchemeError):
            pair_box_prob(spec, Q, Q)

    def test_continuous_shift_marginal_uniform(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        Q = AnchoredBox((F(0), F(0)))
        R = AnchoredBox((F(2, 7), F(1, 3)))
        assert pair_box_prob(spec, Q, R) == R.volume()

    def test_continuous_shift_joint_vs_segment_oracle(self):
        # independent oracle: the shift measure of {u : x1+u in [q,1),
        # x2+u in [r,1)} is piecewise constant between the interval
        # breakpoints, so sum the lengths of the segments whose midpoint
        # satisfies both memberships; no circle-interval code involved
        def member(u, x, a):
            return (x + u) % 1 >= a

        def shift_measure(x1, x2, qi, ri):
            cuts = sorted({(qi - x1) % 1, (1 - x1) % 1,
                           (ri - x2) % 1, (1 - x2) % 1, F(0), F(1)})
            return sum(
                hi - lo
                for lo, hi in zip(cuts, cuts[1:])
                if member((lo + hi) / 2, x1, qi) and member((lo + hi) / 2, x2, ri)
            )

        def oracle_joint(n, qa, ra):
            # index pair shared across coordinates, generator drawn per
            # coordinate, shift integrated per coordinate
            total = F(0)
            count = 0
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    count += 1
                    prod_term = F(1)
                    for qi, ri in zip(qa, ra):
                        acc = F(0)
                        for gam in range(1, n):
                            x1 = F((gam * a) % n, n)
                            x2 = F((gam * b) % n, n)
                            acc += shift_measure(x1, x2, qi, ri)
                        prod_term *= acc / (n - 1)
                    total += prod_term
            return total / count

        n = 5
        spec = SchemeSpec("rsj_lattice", n, 2, shift="continuous_torus", jitter=False)
        cases = [
            ((F(1, 20), F(1, 3)), (F(19, 20), F(0))),
            ((F(1, 10), F(1, 10)), (F(9, 10), F(1, 2))),
            ((F(0), F(2, 5)), (F(3, 7), F(3, 7))),
        ]
        for qa, ra in cases:
            want = oracle_joint(n, qa, ra)
            assert pair_box_prob(spec, AnchoredBox(qa), AnchoredBox(ra)) == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_box_prob(full_rsj(5, 2), AnchoredBox((F(0),)), AnchoredBox((F(0), F(0))))

    @pytest.mark.parametrize("spec", [
        full_rsj(5, 2), lhs_spec(5, 2),
        SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False),
    ])
    def test_unknown_method_rejected_for_every_spec(self, spec):
        box = AnchoredBox((F(1, 3), F(1, 2)))
        with pytest.raises(ValueError, match="unknown method 'bogus'") as err:
            pair_box_prob(spec, box, box, method="bogus")
        assert not isinstance(err.value, UnsupportedSchemeError)

    @pytest.mark.parametrize("method", ["enumeration", "closed_form"])
    def test_continuous_shift_has_only_the_auto_route(self, method):
        # no cell law to enumerate and no per-coordinate closed form
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        box = AnchoredBox((F(1, 3), F(1, 2)))
        with pytest.raises(UnsupportedSchemeError, match=repr(method)):
            pair_box_prob(spec, box, box, method=method)
        assert pair_box_prob(spec, box, box) == F(2, 25)


def test_anchored_box_validation():
    with pytest.raises(ValueError):
        AnchoredBox((F(1),))
    assert AnchoredBox((F(1, 4), F(1, 2))).volume() == F(3, 8)


def test_anchored_box_rejects_binary_floats():
    for bad in (0.3, np.float64(0.3), np.float32(0.5)):
        with pytest.raises(TypeError, match="binary float"):
            AnchoredBox((F(1, 4), bad))
    # exact coordinates keep working: decimal strings are read exactly
    assert AnchoredBox((F(3, 10), 0, "0.3", "1/3")).anchor == (F(3, 10), 0, F(3, 10), F(1, 3))


@pytest.mark.parametrize("call", [
    lambda: AnchoredBox(("1/0",)),
    lambda: AnchoredBox((F(1, 2), " 3/0 ")),
    lambda: shift_only_conditional(
        SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False), "1/0"),
    lambda: stratified_pair_box_prob("1/0", 0, 5),
    lambda: stratified_pair_box_prob(0, "0/0", 5),
], ids=["box", "box-second", "epsilon", "stratified-q", "stratified-r"])
def test_exact_entry_points_zero_denominator_is_a_value_error(call):
    with pytest.raises(ValueError, match="zero denominator"):
        call()


def test_exact_entry_points_read_numpy_integers_and_decimals():
    assert AnchoredBox((np.int64(0), Decimal("0.25"))).anchor == (0, F(1, 4))
    assert stratified_pair_box_prob(np.int64(0), Decimal("0.5"), np.int64(4)) == F(1, 2)


def test_stratified_strata_count_is_an_integer():
    # a float n would let a float out of the exact path
    with pytest.raises(TypeError):
        stratified_pair_box_prob(F(1, 3), F(1, 2), 2.5)
    with pytest.raises(TypeError):
        stratified_pair_box_prob(F(1, 3), F(1, 2), np.float64(3))


def test_exact_entry_points_reject_binary_floats():
    # epsilon, stratified anchors and cell indices are exact like box anchors:
    # a float is refused, not read as its binary value or truncated
    torus = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
    with pytest.raises(TypeError, match="binary float"):
        shift_only_conditional(torus, 0.2)
    with pytest.raises(TypeError, match="binary float"):
        stratified_pair_box_prob(0.3, 0.7, 5)
    with pytest.raises(TypeError, match="binary float"):
        stratified_pair_box_prob(F(3, 10), np.float64(0.7), 5)
    with pytest.raises(TypeError):
        triple_distinguisher(5, 2, (0, 0), (1.9, 2.2))
    # exact inputs keep working, decimal strings and numpy integers included
    assert shift_only_conditional(torus, "0.1") == 1
    assert stratified_pair_box_prob("0.3", "7/10", 5) == F(3, 16)
    assert triple_distinguisher(5, 2, (0, 0), np.array([1, 2])) == (1, 6)
