import hashlib
import json
from fractions import Fraction as F
from itertools import product
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdep.rng import RngStream
from negdep.samplers import (
    MAX_N,
    PointSet,
    _draw_block,
    _draw_words,
    generate,
    point_set_from_csv,
    point_set_from_json,
    point_set_to_csv,
    point_set_to_json,
    replicate,
    rsj_cell_matrix,
    rsj_rank1,
)
from negdep.schemes import SHIFTS, SchemeSpec, full_rsj, lhs_spec, patterson_spec, stratified_spec


def test_stratified_one_point_per_stratum():
    ps = generate(stratified_spec(4), RngStream(1))
    vals = sorted(ps.floats()[:, 0])
    for j, v in enumerate(vals):
        assert j / 4 <= v < (j + 1) / 4


def test_stratified_single_point():
    ps = generate(stratified_spec(1), RngStream(2))
    assert 0 <= ps.floats()[0, 0] < 1


def test_stratified_rejects_zero():
    with pytest.raises(ValueError):
        generate(stratified_spec(0), RngStream(0))


def test_stratified_marginal_uniform():
    # empirical P(p_1 >= q) vs 1 - q at 3 sigma, 1e5 seeded replications
    reps = 10**5
    root = RngStream(404)
    first = np.array([ps.floats()[0, 0] for ps in replicate(stratified_spec(10), root, reps)])
    for q in [k / 10 for k in range(1, 10)]:
        p = 1 - q
        sigma = sqrt(p * (1 - p) / reps)
        assert abs((first >= q).mean() - p) < 3 * sigma


@pytest.mark.parametrize("spec", [stratified_spec(10), lhs_spec(5, 2), patterson_spec(3, 2),
                                  full_rsj(2, 3), SchemeSpec("rsj_lattice", 3, 2, shift="none")])
def test_replicate_equals_generate_per_substream(spec):
    root = RngStream(8)
    reps = 1500  # up to three blocks, the last one partial
    got = list(replicate(spec, root, reps))
    assert len(got) == reps
    assert all(ps == generate(spec, root.split(k)) for k, ps in enumerate(got))


def test_lhs_latin_property():
    ps = generate(lhs_spec(5, 3), RngStream(3))
    cells = ps.cells()
    for i in range(3):
        assert sorted(cells[:, i].tolist()) == list(range(5))


def test_lhs_dim1_is_a_stratified_sample():
    # with one coordinate the latin construction is simple stratification
    ps = generate(lhs_spec(6, 1), RngStream(44))
    vals = sorted(ps.floats()[:, 0])
    for j, v in enumerate(vals):
        assert j / 6 <= v < (j + 1) / 6


@given(n=st.integers(1, 16), dim=st.integers(1, 4), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_lhs_latin_property_random(n, dim, seed):
    cells = generate(lhs_spec(n, dim), RngStream(seed)).cells()
    for i in range(dim):
        assert sorted(cells[:, i].tolist()) == list(range(n))


def test_lhs_cell_pair_frequencies():
    # ordered cell pairs of (p1, p2) per coordinate pair occur with
    # frequency 1/(5*4)^2 over 1e5 seeds; the per-pair 3-sigma bound holds
    # for roughly a third of master seeds, so one is pinned
    reps = 10**5
    root = RngStream(507)
    counts = np.zeros((20, 20))
    pair_codes = [(a, b) for a in range(5) for b in range(5) if a != b]
    code = {ab: i for i, ab in enumerate(pair_codes)}
    for ps in replicate(lhs_spec(5, 2), root, reps):
        cells = ps.cells()
        i = code[(cells[0, 0], cells[1, 0])]
        j = code[(cells[0, 1], cells[1, 1])]
        counts[i, j] += 1
    p = 1 / 400
    sigma = sqrt(reps * p * (1 - p))
    assert np.all(np.abs(counts - reps * p) < 3 * sigma)


def test_patterson_midpoints():
    ps = generate(patterson_spec(2, 1), RngStream(4))
    assert set(ps.floats()[:, 0]) == {0.25, 0.75}
    ps = generate(patterson_spec(5, 2), RngStream(5))
    mids = {(2 * k + 1) / 10 for k in range(5)}
    assert set(ps.floats().ravel()) <= mids
    for i in range(2):
        assert sorted(ps.cells()[:, i].tolist()) == list(range(5))


def test_patterson_pair_distance_at_least_1_over_n():
    ps = generate(patterson_spec(5, 2), RngStream(6))
    r = ps.rationals()
    for j in range(5):
        for k in range(5):
            if j == k:
                continue
            for i in range(2):
                d = abs(r[j][i] - r[k][i])
                assert min(d, 1 - d) >= F(1, 5)


def test_rank1_lattice_structure():
    cells = rsj_cell_matrix((1, 1), (0, 0), 5)
    assert np.array_equal(cells, [[k, k] for k in range(5)])
    assert all(v == 0 for v in cells[0])  # first point is the origin
    # closed under mod-1 addition: a cyclic subgroup of the torus
    pts = {tuple(row) for row in cells.tolist()}
    for a in pts:
        for b in pts:
            assert tuple((x + y) % 5 for x, y in zip(a, b)) in pts


def test_rank1_lattice_differences_regenerate():
    # difference of any two distinct points generates the same lattice
    pts = [tuple(row) for row in rsj_cell_matrix((2, 3), (0, 0), 5).tolist()]
    base = set(pts)
    for j in range(5):
        for k in range(5):
            if j == k:
                continue
            d = tuple((a - b) % 5 for a, b in zip(pts[j], pts[k]))
            regen = {tuple((m * x) % 5 for x in d) for m in range(5)}
            assert regen == base


def test_rsj_grid_structure_jitter_off():
    spec = SchemeSpec("rsj_lattice", 5, 2, jitter=False)
    ps = rsj_rank1(spec, RngStream(8))
    assert np.all(ps.offsets() == 0)


def test_rsj_diagonal_cosets_fixed_generator():
    spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1), jitter=False)
    ps = rsj_rank1(spec, RngStream(9))
    cells = ps.cells()
    offsets = {(c2 - c1) % 5 for c1, c2 in cells.tolist()}
    assert len(offsets) == 1  # one diagonal coset


def test_rsj_continuous_shift_in_range():
    spec = SchemeSpec("rsj_lattice", 7, 3, shift="continuous_torus", jitter=False)
    ps = rsj_rank1(spec, RngStream(10))
    f = ps.floats()
    assert f.min() >= 0 and f.max() < 1
    # shared in-cell offset: all points carry the same 53-bit remainder
    assert len(set(ps.offsets()[:, 0].tolist())) == 1


def test_generate_deterministic():
    for spec in (full_rsj(5, 2), lhs_spec(6, 3), patterson_spec(4, 2), stratified_spec(8)):
        assert generate(spec, 77) == generate(spec, 77)
        assert not np.array_equal(generate(spec, 77).nums, generate(spec, 78).nums)


# sha256 of generate(spec, seed).nums, recorded before the latin samplers
# shared one body; the random stream of every kind is part of the contract
_PINNED_STREAM = [
    (stratified_spec(31), {
        1000: "ed6734315eaae02aca10ccb57dee3388732a7812624554bdd40e38a27789970e",
        2**40 + 7: "fce2439732264b3258c5350cdd2ecae4fa0b44aa157480473524457ba5efb268"}),
    (lhs_spec(31, 4), {
        1000: "a0d1ca3a6f9630420f7ee92e00d5da01ffcff3519f3df80b07bc357282bf0db7",
        2**40 + 7: "2ce75891f03e549a65c7d676f0d30a1f1e1f2ddcc4b47dd9218325ab0c17a2c5"}),
    (patterson_spec(31, 4), {
        1000: "d7639e80007a15205e047e82eba26f9bef7aa80caafbed8a12f4ba5f59d77d82",
        2**40 + 7: "f16e3ba86e77c85e2cd05aae549349eabdfa2fc30743ee22e128e4ac223308b8"}),
    (full_rsj(31, 4), {
        1000: "e3c8383ed1d8b0258d1167737c15ad6a62a3e7e79ff2aa3bd1a09942b59f6067",
        2**40 + 7: "ce65580e17ce9351ea60e2c0d0f4f78dab171734cb888a64ea0626525604632d"}),
    (SchemeSpec("rsj_lattice", 31, 4, generator=(1, 3, 9, 27)), {
        1000: "646ca13841577f9e88fc9422031aa456b811424c99cc111f7b55c8d5c7ece973",
        2**40 + 7: "fae1485f19662bf8dc3f624ad6d0e565af5613e5829ad981ac10c39bd332b129"}),
    (SchemeSpec("rsj_lattice", 31, 4, shift="continuous_torus"), {
        1000: "1040e9e59d67e12d9f68fe64cc0a7d5f5e65d7434c1a7b42ce9a02ce196a3c7e",
        2**40 + 7: "b4586f35271d8951d6c03adc0fcfd9e897037b39ca126f63e2c94494a46c1815"}),
    (SchemeSpec("rsj_lattice", 31, 4, shift="none"), {
        1000: "d6d26f428e2a616a2620a846aeff4d0d3aa058b62e75ae161cf4826a44e1b2ca",
        2**40 + 7: "5d9c8fa1ec7c68abf7e5aaf250d658214142b96901e9fdaccf22da8f79a9e769"}),
    (SchemeSpec("rsj_lattice", 31, 4, jitter=False), {
        1000: "b38e08429cf53ea9e2f72db5b8703414b00f30d9eba213bc8714412522252f07",
        2**40 + 7: "05f49d213d69d4651c93eab14f481f9e0e87ba7c50115a9c9d1b71ce6780938c"}),
]

# n = 2, recorded the same way: the random generator's integer(1) draws no word
_PINNED_N2_STREAM = [
    (full_rsj(2, 3), {
        1000: "f51e0832907f75dd9987c3375d91787cb64e89ddddb3432e7851560370d5cb81",
        2**40 + 7: "b0b7c0b58bd24fda5487a6c417de69ddd8ed47e1042c0bbe731ddad2872471cf"}),
    (SchemeSpec("rsj_lattice", 2, 3, shift="continuous_torus"), {
        1000: "b91d9558bb00a1d0036df8aeed603666df963006deb556178b980ceb2bef00f7",
        2**40 + 7: "05b59fe4798cd00ec863d78d2a8a19a70d225aa02fd88ba34e9b0163637cc975"}),
    (SchemeSpec("rsj_lattice", 2, 3, shift="none"), {
        1000: "ffbe669698bb2fef7bb161d8c711a1571669a6b86b455cc2bae7ea730681144a",
        2**40 + 7: "c25b892c113ff81faace884dc892aa46ad9831603ffdedf05bdcab80313f8714"}),
    (SchemeSpec("rsj_lattice", 2, 3, jitter=False), {
        1000: "7fc88a146c6b05193ab66e045712572734dd057fe439f721cb5de65b6536effd",
        2**40 + 7: "e8ccb4c6fccab79ee21aa723d2ad37c200bb98cf711c198a8e1c705dd9be13d1"}),
]

# words each spec above draws: 3 shift cells (3 more torus fractions),
# 1 for the permutation, 6 jitters
_PINNED_N2_COUNTERS = {"grid": 10, "continuous_torus": 13, "none": 7}


def _pinned_ids(table):
    return [f"{s.kind}-g={s.generator}-shift={s.shift}-jitter={s.jitter}" for s, _ in table]


def _check_pinned(spec, digests):
    for seed, want in digests.items():
        ps = generate(spec, seed)
        assert hashlib.sha256(ps.nums.tobytes()).hexdigest() == want, seed
        # a stream argument is drawn from in place and gives the same set
        assert generate(spec, RngStream(seed)) == ps


@pytest.mark.parametrize("spec,digests", _PINNED_STREAM, ids=_pinned_ids(_PINNED_STREAM))
def test_generate_stream_pinned(spec, digests):
    _check_pinned(spec, digests)


@pytest.mark.parametrize("spec,digests", _PINNED_N2_STREAM, ids=_pinned_ids(_PINNED_N2_STREAM))
def test_generate_stream_pinned_n2(spec, digests):
    _check_pinned(spec, digests)


def test_generate_leaves_pinned_counter_at_n2():
    for spec, digests in _PINNED_N2_STREAM:
        want = _PINNED_N2_COUNTERS[spec.shift] - (0 if spec.jitter else 6)
        for seed in digests:
            r = RngStream(seed)
            generate(spec, r)
            assert r.counter == want


def _every_spec():
    for n in (1, 2, 3, 5, 31):
        yield stratified_spec(n)
        for d in range(1, 5):
            yield lhs_spec(n, d)
            yield patterson_spec(n, d)
            if n == 1:
                continue
            for g in ("random", tuple((1 + 2 * i) % (n - 1) + 1 for i in range(d))):
                for shift in ("grid", "continuous_torus", "none"):
                    for jitter in (True, False):
                        yield SchemeSpec("rsj_lattice", n, d, generator=g, shift=shift,
                                         jitter=jitter)


def test_reservations_change_no_point_and_no_counter(monkeypatch):
    # generate as shipped against generate with every reservation a no-op:
    # the same numerators from an integer seed, whose stream generate
    # reserves, and from a stream, with the same counter left on it and
    # the same next word
    def run():
        out = []
        for spec in _every_spec():
            for seed in (0, 3, 2**40 + 7):
                r = RngStream(seed)
                r.u64()  # start mid-stream
                ps = generate(spec, r)
                out.append((spec, seed, generate(spec, seed).nums.tobytes(), ps.nums.tobytes(),
                            r.counter, r.u64()))
        return out

    shipped = run()
    with monkeypatch.context() as m:
        m.setattr(RngStream, "reserve", lambda self, count: None)
        unreserved = run()
    assert len(shipped) > 500
    for got, want in zip(shipped, unreserved):
        assert got == want, got[:2]


@pytest.mark.parametrize("spec", [full_rsj(7, 3), lhs_spec(7, 3), patterson_spec(5, 2)],
                         ids=["rsj", "lhs", "patterson"])
def test_generate_reserves_only_a_stream_it_makes(spec, monkeypatch):
    # an integer seed's stream is sized once; a given stream, and each
    # split_block stream of replicate, is drawn as it comes
    calls = []
    monkeypatch.setattr(RngStream, "reserve", lambda self, count: calls.append(count))
    generate(spec, 5)
    assert calls == [_draw_words(spec)]
    generate(spec, RngStream(5))
    assert len(list(replicate(spec, RngStream(5), 40))) == 40
    assert calls == [_draw_words(spec)]


def _drawer_specs():
    for n in (2, 3, 5, 31):
        yield stratified_spec(n)
        for d in (1, 2, 4):
            yield lhs_spec(n, d)
            yield patterson_spec(n, d)
            for g in ("random", tuple((1 + 2 * i) % (n - 1) + 1 for i in range(d))):
                for shift in SHIFTS:
                    for jitter in (True, False):
                        yield SchemeSpec("rsj_lattice", n, d, generator=g, shift=shift,
                                         jitter=jitter)


@pytest.mark.parametrize("sized", [True, False], ids=["draw-words-windows", "one-word-windows"])
def test_draw_block_equals_generate_per_substream(sized):
    # each block row run and each stream's counter and next word are those
    # of generate on its own split; one-word windows send every draw past
    # the window's end
    root = RngStream(77)
    first, reps = 3, 6
    for spec in _drawer_specs():
        want = []
        for k in range(first, first + reps):
            s = root.split(k)
            want.append((generate(spec, s).nums, s.counter, s.u64()))
        streams = list(root.split_block(first, reps, _draw_words(spec) if sized else 1))
        nums = _draw_block(spec, streams)
        n = spec.n
        assert nums.shape == (reps * n, spec.dim), spec
        for k, (s, (rows, counter, word)) in enumerate(zip(streams, want)):
            assert np.array_equal(nums[k * n:(k + 1) * n], rows), (spec, k)
            assert (s.counter, s.u64()) == (counter, word), (spec, k)


def test_latin_entry_points_match_generate():
    # a given stream draws what an integer seed draws, for every latin kind
    for seed in (0, 5, 2**40 + 7):
        for spec in (stratified_spec(9), lhs_spec(9, 3), patterson_spec(9, 3)):
            assert generate(spec, RngStream(seed)) == generate(spec, seed)
        # one-coordinate lhs draws what stratified sampling draws
        assert np.array_equal(generate(lhs_spec(9, 1), seed).nums,
                              generate(stratified_spec(9), seed).nums)


def test_rsj_discrete_skeleton_matches_pair_law():
    # enumerate the sampler's cell construction over every (generator, shift,
    # ordered index pair); the pair of cell vectors must be uniform over
    # coordinatewise-distinct pairs: 1/(N(N-1))^d of the (g, s) mass each
    for n, d in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]:
        counts = {}
        total = 0
        for g in product(range(1, n), repeat=d):
            for s in product(range(n), repeat=d):
                cells = rsj_cell_matrix(g, s, n)
                for a in range(n):
                    for b in range(n):
                        if a == b:
                            continue
                        key = (tuple(cells[a]), tuple(cells[b]))
                        counts[key] = counts.get(key, 0) + 1
                        total += 1
        expect = F(1, (n * (n - 1)) ** d)
        assert len(counts) == (n * (n - 1)) ** d
        assert all(F(c, total) == expect for c in counts.values())


def test_exchangeability_histograms():
    # cell histogram of p_1 from one half of the seeds vs p_n from the other
    # half; two-sample chi-square within 3 sigma of its mean
    reps = 10**4
    half = reps // 2
    for spec, seed in ((full_rsj(5, 2), 61), (lhs_spec(5, 2), 62), (stratified_spec(5), 63)):
        root = RngStream(seed)
        n, d = spec.n, spec.dim
        nbins = n**d
        h1 = np.zeros(nbins)
        h2 = np.zeros(nbins)
        for k, ps in enumerate(replicate(spec, root, reps)):
            cells = ps.cells()
            enc_first = int(sum(cells[0, i] * n**i for i in range(d)))
            enc_last = int(sum(cells[-1, i] * n**i for i in range(d)))
            if k < half:
                h1[enc_first] += 1
            else:
                h2[enc_last] += 1
        tot = h1 + h2
        mask = tot > 0
        chi2 = (((h1 - h2) ** 2)[mask] / tot[mask]).sum()
        df = int(mask.sum()) - 1
        assert chi2 <= df + 3 * sqrt(2 * df), (spec.kind, chi2, df)


def test_point_set_rationals_match_floats():
    ps = generate(full_rsj(5, 2), 13)
    r = ps.rationals()
    f = ps.floats()
    for j in range(5):
        for i in range(2):
            assert abs(float(r[j][i]) - f[j, i]) < 1e-15


def test_csv_round_trip():
    ps = generate(lhs_spec(5, 2), 21)
    text = point_set_to_csv(ps)
    assert text.startswith("# scheme=lhs, n=5, dim=2, seed=21\n")
    meta, pts = point_set_from_csv(text)
    assert meta["scheme"] == "lhs" and int(meta["n"]) == 5
    assert np.allclose(pts, ps.floats())


def test_csv_round_trip_keeps_a_fixed_generator():
    # the generator's commas belong to its value, not to the header's list
    ps = generate(SchemeSpec("rsj_lattice", 7, 3, generator=(1, 2, 3)), 5)
    meta, pts = point_set_from_csv(point_set_to_csv(ps))
    assert meta == {"scheme": "rsj_lattice", "n": "7", "dim": "3", "seed": "5",
                    "generator": "1,2,3", "shift": "grid", "jitter": "on"}
    assert np.array_equal(pts, ps.floats())


def test_json_round_trip_exact():
    for spec in (full_rsj(5, 2), patterson_spec(4, 3)):
        ps = generate(spec, 33)
        ps2 = point_set_from_json(point_set_to_json(ps))
        assert ps2 == ps


def test_json_import_revalidates():
    ps = generate(lhs_spec(4, 2), 5)
    text = point_set_to_json(ps)
    corrupted = text.replace('"nums": [', '"nums": [[0, 0], ', 1)
    with pytest.raises(ValueError):
        point_set_from_json(corrupted)


def _edited_json(spec, edit):
    # edit changes the payload in place, or returns the payload to write instead
    payload = json.loads(point_set_to_json(generate(spec, 5)))
    edited = edit(payload)
    return json.dumps(payload if edited is None else edited)


def _repeat_first_stratum(payload):
    payload["nums"][1][0] = payload["nums"][0][0]


def _move_off_grid(payload):
    payload["nums"][0][0] += 1


def _coarser_bits(payload):
    payload["frac_bits"] = 52


def _past_int64(payload):
    payload["nums"][0][0] = 2**63


def _fractional(payload):
    payload["nums"][0][0] += 0.5


def _nudge_a_point(payload):
    payload["points"][0][0] = float(np.nextafter(payload["points"][0][0], 1.0))


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("spec,edit,message", [
    (lhs_spec(4, 2), _repeat_first_stratum, "latin property"),
    (stratified_spec(4), _repeat_first_stratum, "stratification"),
    (SchemeSpec("rsj_lattice", 5, 2, shift="grid", jitter=False), _move_off_grid, "off-grid"),
    (lhs_spec(4, 2), _coarser_bits, "resolution"),
    (lhs_spec(4, 2), lambda payload: [payload], "must be a JSON object"),
    (lhs_spec(4, 2), _without("spec"), "with keys spec, nums and seed"),
    (lhs_spec(4, 2), _without("nums"), "with keys spec, nums and seed"),
    (lhs_spec(4, 2), _without("seed"), "with keys spec, nums and seed"),
    (lhs_spec(4, 2), _past_int64, "nums must be rows"),
    (lhs_spec(4, 2), _fractional, "nums must be rows"),
    (lhs_spec(4, 2), _nudge_a_point, "points must be the float export"),
    (lhs_spec(4, 2), _without("points"), "points must be the float export"),
], ids=["lhs", "stratified", "jitterless-grid", "frac-bits", "non-object", "no-spec", "no-nums",
        "no-seed", "past-int64", "fractional", "moved-point", "no-points"])
def test_json_import_checks_the_structure(spec, edit, message):
    # every malformed payload is a ValueError: a payload that is not a point
    # set object, and one whose shape and range are right but whose scheme's
    # own structure is not
    with pytest.raises(ValueError, match=message):
        point_set_from_json(_edited_json(spec, edit))


def test_csv_import_checks_range_and_shape():
    text = point_set_to_csv(generate(lhs_spec(4, 2), 5))
    header, rows = text.splitlines()[:2], text.splitlines()[2:]
    for bad in ("1.0", "-0.25"):
        with pytest.raises(ValueError, match="outside"):
            point_set_from_csv("\n".join(header + [f"0.5,{bad}"] + rows[1:]))
    with pytest.raises(ValueError, match="row count"):
        point_set_from_csv("\n".join(header + rows[1:]))
    with pytest.raises(ValueError, match="column count"):
        point_set_from_csv("\n".join(header + [row.split(",")[0] for row in rows]))


def test_generate_refuses_past_the_size_cap():
    assert generate(lhs_spec(MAX_N, 1), 0).n == MAX_N
    with pytest.raises(ValueError, match=f"capped at {MAX_N}"):
        generate(lhs_spec(MAX_N + 1, 1), 0)


def test_point_set_rejects_out_of_range():
    spec = lhs_spec(2, 1)
    with pytest.raises(ValueError):
        PointSet(np.array([[0], [2 << 53]], dtype=np.int64), spec, 0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, MAX_N), k=st.integers(1, 64))
@example(n=5, k=1)
def test_floats_stay_below_one_near_the_top_numerator(n, k):
    # numerators within a few ulps of n * 2**53 divide to 1.0 when rounded;
    # the export clamps those and leaves every other value as divided
    top = n << 53
    nums = np.array([[top - j] for j in range(k, k + n)], dtype=np.int64)
    ps = PointSet(nums, stratified_spec(n), 0)
    f = ps.floats()
    assert f.min() >= 0 and f.max() < 1
    divided = nums / float(top)
    below = divided < 1
    assert np.array_equal(f[below], divided[below])
    assert (f[~below] == np.nextafter(1.0, 0.0)).all()
    _, pts = point_set_from_csv(point_set_to_csv(ps))
    assert np.array_equal(pts, f)
