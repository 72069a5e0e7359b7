import json
import time
from fractions import Fraction as F

import pytest

from negdep.analyzer import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    HypothesisViolatedError,
    UnsupportedSchemeError,
    copula_equality_check,
    coordinate_independence_check,
    no_shift_mass,
    nuod_scan,
    report_to_json_dict,
    shift_only_conditional,
    triple_distinguisher,
)
from negdep.schemes import SchemeSpec, full_rsj, lhs_spec, patterson_spec, stratified_spec
from test_kernel import oracle_latin_count, scan_csv, scan_pairs_rows


class TestNuodScan:
    def test_full_rsj_clean(self):
        rep = nuod_scan(full_rsj(5, 2), 10)
        assert rep.ok and rep.worst_violation == 0 and rep.witnesses == ()
        assert rep.grid["certifies_all_boxes"]

    def test_lhs_clean(self):
        assert nuod_scan(lhs_spec(4, 3), 8).ok

    def test_patterson_clean_against_own_marginals(self):
        # with the product taken over its true (discrete) marginals the
        # midpoint scheme satisfies the inequality; the failure mode needs
        # the fixed-distance probe
        assert nuod_scan(patterson_spec(5, 2), 10).ok

    def test_stratified_clean(self):
        assert nuod_scan(stratified_spec(6), 12).ok

    def test_fixed_generator_witness(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        rep = nuod_scan(spec, 5)
        assert not rep.ok
        target_q = (F(3, 5), F(3, 5))
        target_r = (F(4, 5), F(4, 5))
        hits = [
            w for w in rep.witnesses
            if w[0].anchor == target_q and w[1].anchor == target_r
        ]
        assert len(hits) == 1
        _, _, joint, prodv = hits[0]
        assert joint == F(1, 100) and prodv == F(4, 625)

    def test_witnesses_sorted_by_excess(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        rep = nuod_scan(spec, 5)
        gaps = [w[2] - w[3] for w in rep.witnesses]
        assert gaps == sorted(gaps, reverse=True)
        assert rep.worst_violation == gaps[0]

    def test_deterministic(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        a, b = nuod_scan(spec, 5), nuod_scan(spec, 5)
        assert a.witnesses == b.witnesses and a.worst_violation == b.worst_violation

    def test_grid_budget(self):
        # the certificate: one closed-form table, 14^2 + 2 x 14 entries, and
        # its 14^2 comparisons
        work = 2 * 14**2 + 2 * 14
        with pytest.raises(BudgetExceededError, match=f"{work} multiply-adds"):
            nuod_scan(full_rsj(7, 3), 14, budget=work - 1)
        assert nuod_scan(full_rsj(7, 3), 14, budget=work).ok

    def test_factorized_charge_does_not_grow_with_n(self):
        # the closed-form table's M^2 + 2 M entries and M^2 comparisons,
        # whatever n; d contractions with 1 - I would cost 2 x 20000 x 2 x 3
        # and 4e31 multiply-adds
        for n, m, work in ((20000, 2, 12), (10**30, 4, 40)):
            spec = lhs_spec(n, 2)
            with pytest.raises(BudgetExceededError, match=f"{work} multiply-adds"):
                nuod_scan(spec, m, budget=work - 1)
            rep = nuod_scan(spec, m)
            assert rep == nuod_scan(spec, m, budget=work)
            assert rep.ok and rep.witnesses == () and not rep.grid["certifies_all_boxes"]

    def test_report_json(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        d = report_to_json_dict(nuod_scan(spec, 5))
        text = json.dumps(d, sort_keys=True)
        assert '"1/100"' in text and '"4/625"' in text
        assert d["scheme"]["generator"] == [1, 1]
        assert all(set(v) == {"Q", "R", "joint", "product"} for v in d["violations"])

    def test_continuous_shift_not_scannable(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        with pytest.raises(UnsupportedSchemeError):
            nuod_scan(spec, 5)

    def test_pairs_rows_match_scan(self):
        # the per-pair table flags exactly the scan's witnesses, on both the
        # factorized and the enumerated route
        for spec in (full_rsj(3, 2), SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))):
            m = spec.n
            rep = nuod_scan(spec, m)
            rows = list(scan_pairs_rows(spec, m))
            assert len(rows) == m ** (2 * spec.dim)
            flagged = {(q.anchor, r.anchor) for q, r, _, _, bad in rows if bad}
            witnesses = {(w[0].anchor, w[1].anchor) for w in rep.witnesses}
            assert flagged == witnesses
            by_key = {(q.anchor, r.anchor): (j, p) for q, r, j, p, _ in rows}
            for w in rep.witnesses:
                assert by_key[(w[0].anchor, w[1].anchor)] == (w[2], w[3])

    def test_pairs_rows_budget(self):
        with pytest.raises(BudgetExceededError):
            scan_csv(full_rsj(7, 3), 14, 100)

    def test_object_dtype_fallback_matches_int64(self, monkeypatch):
        # force the python-int route of the factorized scanner and of the
        # enumerated kernel and compare with the int64 route; patterson has
        # nonzero per-pair gaps, so also cross-check a row sample between
        # routes; the fixed generator has witnesses on the enumerated route
        import negdep.analyzer as mod
        from negdep.analyzer import AnchoredBox, pair_box_prob, pair_marginal_prob

        fixed = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 2))
        Q, R = AnchoredBox((F(1, 3), F(3, 5))), AnchoredBox((F(4, 5), F(1, 10)))

        def results():
            return (
                nuod_scan(full_rsj(3, 2), 6),
                scan_csv(patterson_spec(4, 2), 4, DEFAULT_BUDGET),
                nuod_scan(fixed, 5),
                scan_csv(fixed, 5, DEFAULT_BUDGET),
                pair_box_prob(fixed, Q, R),
                pair_marginal_prob(fixed, Q, 0),
                pair_marginal_prob(fixed, R, 1),
            )

        fast = results()
        monkeypatch.setattr(mod, "_INT64_SAFE_LIMIT", 1)
        slow = results()
        assert slow[0].ok and slow[0].worst_violation == fast[0].worst_violation
        assert slow[1:] == fast[1:]
        assert not slow[2].ok and len(slow[2].witnesses) == 12


class TestCopulaEquality:
    @pytest.mark.parametrize("n,d", [(3, 2), (5, 3)])
    def test_full_lattice_matches_lhs(self, n, d):
        cc = copula_equality_check(n, d)
        assert cc.equal and cc.max_discrepancy == 0

    def test_fixed_generator_differs(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        cc = copula_equality_check(5, 2, spec=spec)
        assert not cc.equal and cc.max_discrepancy > 0


class TestCoordinateIndependence:
    @pytest.mark.parametrize("n,d", [(3, 2), (5, 3)])
    def test_full_lattice_factorizes(self, n, d):
        assert coordinate_independence_check(n, d).ok

    def test_fixed_generator_fails_with_witness(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
        rep = coordinate_independence_check(5, 2, spec=spec)
        assert not rep.ok
        w = rep.witness
        assert w["joint"] != w["product"]
        assert w["subset"] == (0, 1)


class TestTripleDistinguisher:
    def test_spec_cases(self):
        assert triple_distinguisher(5, 2, (0, 0), (1, 2)) == (1, 6)
        assert triple_distinguisher(5, 3, (0, 0, 0), (1, 2, 3)) == (1, 36)
        assert triple_distinguisher(7, 2, (0, 0), (1, 2)) == (1, 120)

    def test_any_admissible_pair_gives_same_counts(self):
        for b in [(1, 1), (2, 4), (4, 3)]:
            assert triple_distinguisher(5, 2, (0, 0), b) == (1, 6)

    def test_shared_coordinate_rejected(self):
        with pytest.raises(ValueError, match="share"):
            triple_distinguisher(5, 2, (0, 0), (0, 2))

    def test_small_or_composite_n_rejected(self):
        with pytest.raises(ValueError):
            triple_distinguisher(3, 2, (0, 0), (1, 1))
        with pytest.raises(ValueError):
            triple_distinguisher(9, 2, (0, 0), (1, 1))

    def test_budget_refusal_names_work_and_budget(self):
        # the latin count at (1009, 4) has at most 30210 bits: 1007^2 limb
        # products to print
        a, b = (0, 0, 0, 0), (1, 2, 3, 4)
        with pytest.raises(BudgetExceededError, match="1014049 limb products exceeds budget 1014048"):
            triple_distinguisher(1009, 4, a, b, budget=1014048)
        assert triple_distinguisher(1009, 4, a, b, budget=1014049)[0] == 1
        # charged before n is tested or its factorial formed
        with pytest.raises(BudgetExceededError, match="latin count too large"):
            triple_distinguisher(10**18 + 3, 2, (0, 0), (1, 2))

    def test_factored_counting_path_agrees(self):
        # the per-coordinate latin count against the enumeration over every
        # tuple of permutations
        for n, d, a, b in ((5, 3, (0, 0, 0), (1, 2, 3)), (5, 3, (2, 4, 1), (0, 0, 3)),
                           (7, 2, (3, 5), (6, 1))):
            assert triple_distinguisher(n, d, a, b)[1] == oracle_latin_count(n, d, a, b)


class TestNoShiftMass:
    def test_values(self):
        assert no_shift_mass(5, 2) == F(1, 5)
        assert no_shift_mass(3, 3) == F(1, 3)
        assert no_shift_mass(5, 1) == F(1, 5)  # consistent with uniformity in 1-D

    def test_refutes_uniformity_for_d_at_least_2(self):
        for n, d in ((5, 2), (3, 3)):
            assert no_shift_mass(n, d) != F(1, n**d)

    def test_needs_prime_n_and_positive_dim(self):
        # n = 1 divided by zero, and n = 4 gave 5/18 rather than 1/n
        for n, d in ((1, 2), (0, 2), (4, 2), (9, 1), (5, 0)):
            with pytest.raises(ValueError, match="prime|dim"):
                no_shift_mass(n, d)

    def test_huge_prime_n_is_decided_at_once(self):
        t0 = time.perf_counter()
        assert no_shift_mass(10**18 + 3, 2) == F(1, 10**18 + 3)
        with pytest.raises(ValueError, match="prime"):
            no_shift_mass(10**18 + 1, 2)
        assert time.perf_counter() - t0 < 0.1


class TestShiftOnlyConditional:
    def test_lattice_cases(self):
        for n in (5, 7):
            spec = SchemeSpec("rsj_lattice", n, 2, shift="continuous_torus", jitter=False)
            assert shift_only_conditional(spec, F(1, 2 * n)) == 1

    def test_exceeds_box_volume(self):
        n = 5
        spec = SchemeSpec("rsj_lattice", n, 2, shift="continuous_torus", jitter=False)
        eps = F(1, 10)
        cond = shift_only_conditional(spec, eps)
        assert cond == 1 > 1 - eps / 2  # conditional beats lambda(Q)

    def test_patterson_case(self):
        assert shift_only_conditional(patterson_spec(5, 2), F(1, 10)) == 1

    def test_fixed_generator_variant(self):
        spec = SchemeSpec(
            "rsj_lattice", 5, 2, generator=(1, 2), shift="continuous_torus", jitter=False
        )
        assert shift_only_conditional(spec, F(1, 10)) == 1

    def test_hypothesis_violation_names_witness(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        with pytest.raises(HypothesisViolatedError, match="1/5"):
            shift_only_conditional(spec, F(1, 5))

    def test_epsilon_range(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
        with pytest.raises(ValueError):
            shift_only_conditional(spec, F(0))
        with pytest.raises(ValueError):
            shift_only_conditional(spec, F(3, 4))

    def test_wrong_spec_rejected(self):
        with pytest.raises(UnsupportedSchemeError):
            shift_only_conditional(full_rsj(5, 2), F(1, 10))
        with pytest.raises(UnsupportedSchemeError):
            shift_only_conditional(lhs_spec(5, 2), F(1, 10))

    def test_needs_a_pair(self):
        # one midpoint has no distinct partner; patterson_spec(1, d) divided by zero
        with pytest.raises(ValueError, match="n >= 2"):
            shift_only_conditional(patterson_spec(1, 2), F(1, 2))
