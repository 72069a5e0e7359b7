import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import negdep
from negdep import __version__, analyzer, cli, rng, variance
from negdep.cli import build_parser, main
from negdep.samplers import point_set_from_csv, point_set_from_json
from negdep.schemes import KINDS, SHIFTS, SchemeSpec, spec_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# scheme=rsj_lattice, n=5, dim=2, seed=7"
        assert len(lines) == 2 + 5
        meta, pts = point_set_from_csv(out)
        assert pts.shape == (5, 2)

    def test_composite_n_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--scheme", "rsj", "--n", "6",
                           "--dim", "2", "--seed", "1")
        assert code == 2
        assert "prime" in err

    def test_degenerate_generator_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--seed", "1", "--generator", "0,1")
        assert code == 2
        assert "degenerate" in err

    def test_size_cap_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "generate", "--scheme", "lhs", "--n", "513", "--seed", "0")
        assert code == 2 and out == ""
        assert "capped at 512" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "generate", "--scheme", "lhs", "--n", "4",
                           "--dim", "3", "--seed", "2", "--format", "json")
        assert code == 0
        ps = point_set_from_json(out)
        assert ps.n == 4 and ps.dim == 3 and ps.seed == 2

    def test_fixed_generator_diagonal_cosets(self, capsys):
        code, out, _ = run(capsys, "generate", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--seed", "3", "--generator", "1,1",
                           "--jitter", "off", "--shift", "grid", "--format", "json")
        assert code == 0
        ps = point_set_from_json(out)
        cells = ps.cells()
        assert len({(c2 - c1) % 5 for c1, c2 in cells.tolist()}) == 1

    def test_byte_identical_reruns_with_manifest(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code, _, _ = run(capsys, "generate", "--scheme", "patterson", "--n", "5",
                             "--dim", "2", "--seed", "9", "--out", str(path))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["outputs"] == [str(out1)]
        assert "duration_seconds" in manifest


def test_byte_identical_reruns_three_commands(tmp_path, capsys):
    # equal arguments give byte-identical data files for generate, analyze
    # and variance (manifests carry timing and are excluded)
    jobs = [
        ("gen", ["generate", "--scheme", "rsj", "--n", "5", "--dim", "2",
                 "--seed", "11", "--format", "json"]),
        ("scan", ["analyze", "nuod", "--scheme", "rsj", "--n", "5", "--dim", "2",
                  "--generator", "1,1", "--grid", "5"]),
        ("var", ["variance", "--scheme", "lhs", "--n", "5", "--dim", "2",
                 "--integrand", "product", "--replications", "150", "--seed", "6"]),
    ]
    for tag, argv in jobs:
        paths = []
        for attempt in range(2):
            path = tmp_path / f"{tag}{attempt}.out"
            full = list(argv)
            if tag == "var":
                full += ["--out-json", str(path)]
            else:
                full += ["--out", str(path)]
            main(full)
            capsys.readouterr()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), tag


class TestAnalyze:
    def test_pairprob_exact_strings(self, capsys):
        code, out, _ = run(capsys, "analyze", "pairprob", "--scheme", "rsj",
                           "--n", "5", "--dim", "2", "--generator", "1,1",
                           "--Q", "0.6,0.6", "--R", "0.8,0.8")
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"] == "1/100"
        assert payload["product"] == "4/625"
        assert payload["violation"] is True

    def test_pairprob_accepts_fraction_strings(self, capsys):
        code, out, _ = run(capsys, "analyze", "pairprob", "--scheme", "rsj",
                           "--n", "5", "--dim", "2", "--generator", "1,1",
                           "--Q", "3/5,3/5", "--R", "4/5,4/5")
        assert code == 0
        assert json.loads(out)["joint"] == "1/100"

    def test_pairprob_large_factorized_law(self, capsys):
        # one closed form per coordinate, O(1) whatever n: no budget applies
        for budget in ([], ["--budget", "1"]):
            code, out, _ = run(capsys, "analyze", "pairprob", "--scheme", "lhs",
                               "--n", "100000", "--dim", "2", *budget,
                               "--Q", "1/2,1/2", "--R", "1/2,1/2")
            assert code == 0
            assert json.loads(out)["joint"] == "2499900001/39999200004"

    def test_pairprob_anchor_past_the_digit_limit(self, capsys):
        # 5000 digits, past the interpreter's 4300-digit str-to-int limit,
        # which is back in place after the command
        limit = sys.get_int_max_str_digits()
        q = "0." + "3" * 5000
        code, out, err = run(capsys, "analyze", "pairprob", "--scheme", "lhs", "--n", "5",
                             "--dim", "1", "--Q", q, "--R", "0.5")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(out)
            assert F(payload["Q"][0]) == F(q)
            assert F(payload["joint"]) == analyzer.stratified_pair_box_prob(F(q), F(1, 2), 5)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [
        ("pairprob", "--scheme", "lhs", "--n", "5", "--dim", "2", "--Q", "1/0,0", "--R", "0,0"),
        ("ablation", "--n", "5", "--dim", "2", "--epsilon", "1/0"),
    ], ids=["pairprob", "ablation"])
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "zero denominator" in err

    def test_nuod_clean_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "nuod", "--scheme", "lhs",
                           "--n", "4", "--dim", "2", "--grid", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["worst_violation"] == "0/1"

    def test_nuod_violation_exit_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "nuod", "--scheme", "rsj",
                           "--n", "5", "--dim", "2", "--generator", "1,1",
                           "--grid", "5")
        assert code == 1
        assert len(json.loads(out)["violations"]) > 0

    def test_budget_exceeded_exit_three(self, capsys):
        code, _, err = run(capsys, "analyze", "nuod", "--scheme", "rsj",
                           "--n", "7", "--dim", "3", "--grid", "14",
                           "--budget", "1000")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("dim", ["10000", "1000000"])
    @pytest.mark.parametrize("argv", [("copula", "--scheme", "rsj", "--n", "5"),
                                      ("nuod", "--scheme", "rsj", "--n", "5", "--shift", "none",
                                       "--grid", "5")], ids=["copula", "nuod"])
    def test_huge_dim_exits_three_at_once(self, capsys, argv, dim):
        # the work is at least 2^dim, refused before n^dim is formed
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", *argv, "--dim", dim)
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == ""
        assert err.startswith("error: ") and f"at least 2^{dim} " in err

    def test_ablation_torus_budget_refuses_before_generators(self, capsys):
        # the fixed-distance probe decides its premise floor(eps n) == 0 with
        # no budget and no generator array, so the budget refuses the
        # fixed-generator query's law, before it is built
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", "ablation", "--n", "10000019", "--dim", "2")
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == ""
        assert err == (f"error: enumeration too large: {10000018 + 10000019 ** 4} terms "
                       f"exceeds budget {analyzer.DEFAULT_BUDGET}\n")

    @pytest.mark.parametrize("jitter", ["off", "on"])
    @pytest.mark.parametrize("n,dim", [("5", "2"), ("5", "30"), ("101", "3")])
    @pytest.mark.parametrize("argv", [("nuod", "--grid", "10"), ("copula",), ("independence",)],
                             ids=["nuod", "copula", "independence"])
    def test_torus_cell_law_is_refused_at_every_size(self, capsys, argv, n, dim, jitter):
        # a torus shift has no cell law: the spec's law is read before any
        # budget, so no size turns the usage error into a budget refusal
        code, out, err = run(capsys, "analyze", argv[0], "--scheme", "rsj", "--n", n, "--dim", dim,
                             "--shift", "torus", "--jitter", jitter, *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: the discrete cell law is undefined for a continuous torus shift\n"

    @pytest.mark.parametrize("generator,joint", [
        ("random", "4000022140040834025095/21000117600219450136458"),
        ("3,5", "952718659690961191347/5000028000052250032490"),
    ], ids=["random", "fixed"])
    def test_torus_query_at_ten_million_points(self, capsys, generator, joint):
        # d (n - 1) terms either way, a block of lags at a time; the joints
        # were checked by a plain python loop over delta
        code, out, _ = run(capsys, "analyze", "pairprob", "--scheme", "rsj", "--n", "10000019",
                           "--dim", "2", "--shift", "torus", "--jitter", "off",
                           "--generator", generator, "--Q", "1/3,1/5", "--R", "2/7,1/2")
        assert code == 0 and json.loads(out)["joint"] == joint

    def test_copula(self, capsys):
        code, out, _ = run(capsys, "analyze", "copula", "--scheme", "rsj",
                           "--n", "3", "--dim", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True and payload["max_discrepancy"] == "0/1"

    def test_independence_witness(self, capsys):
        code, out, _ = run(capsys, "analyze", "independence", "--scheme", "rsj",
                           "--n", "5", "--dim", "2", "--generator", "1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["independent"] is False
        assert "witness" in payload

    def test_triple(self, capsys):
        code, out, _ = run(capsys, "analyze", "triple", "--n", "5", "--dim", "2",
                           "--a", "0,0", "--b", "1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["lattice"] == 1 and payload["lhs"] == 6

    @pytest.mark.parametrize("argv, key, value", [
        (["nuod", "--scheme", "lhs", "--n", "5", "--dim", "4000", "--grid", "5"],
         ("grid", "pairs"), 5**8000),
        (["triple", "--n", "1009", "--dim", "4", "--a", "0,0,0,0", "--b", "1,2,3,4"],
         ("lhs",), factorial(1007)**3),
    ], ids=["nuod-grid-pairs", "triple-lhs"])
    def test_exact_counts_of_any_size_are_printed(self, capsys, argv, key, value):
        # past the interpreter's 4300-digit int-to-str limit, which the dump
        # lifts for itself only
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)
        for k in key:
            payload = payload[k]
        assert payload == value

    def test_exact_rationals_of_any_size_are_printed(self, capsys):
        # the joint and product of lhs(5, 6000) at anchors 1/7 have more
        # digits than the interpreter's int-to-str limit
        limit = sys.get_int_max_str_digits()
        anchor = ",".join(["1/7"] * 6000)
        code, out, err = run(capsys, "analyze", "pairprob", "--scheme", "lhs", "--n", "5",
                             "--dim", "6000", "--Q", anchor, "--R", anchor)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        sys.set_int_max_str_digits(0)
        try:
            assert len(payload["joint"]) > limit
            # lhs factorizes: one stratified pair factor and two 6/7 marginals per coordinate
            assert F(payload["joint"]) == analyzer.stratified_pair_box_prob(F(1, 7), F(1, 7), 5)**6000
            assert F(payload["product"]) == F(6, 7) ** 12000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_triple_shared_cell_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "triple", "--n", "5", "--dim", "2",
                           "--a", "0,0", "--b", "0,2")
        assert code == 2

    def test_triple_budget_refuses_before_primality(self, capsys):
        # the latin count's limb products are charged before n is tested
        # or its factorial formed
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", "triple", "--n", "1000000000000000003",
                             "--dim", "2", "--a", "0,0", "--b", "1,2")
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "latin count too large" in err and "limb products" in err

    def test_triple_refuses_a_latin_count_too_long_to_print(self, capsys):
        # 6^199999 has 516 990 bits: printing it alone takes about half a second
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", "triple", "--n", "5", "--dim", "200000",
                             "--a", ",".join(["0"] * 200000), "--b", ",".join(["1"] * 200000))
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == ""
        assert err.startswith("error: latin count too large: 1600000000 limb products")

    def test_ablation(self, capsys):
        code, out, _ = run(capsys, "analyze", "ablation", "--n", "5", "--dim", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["no_shift"]["first_cell_mass"] == "1/5"
        assert payload["no_shift"]["sampling_scheme"] is False
        assert payload["fixed_distance"]["conditional"] == "1/1"
        assert payload["fixed_distance"]["patterson_conditional"] == "1/1"
        assert payload["fixed_distance"]["negatively_dependent"] is False
        assert payload["fixed_generator"]["joint"] == "1/100"
        assert payload["fixed_generator"]["violation"] is True

    def test_ablation_generator_field(self, capsys):
        # a fixed generator prints its list; "random" prints the word
        for flags, want in (([], [1, 1]), (["--generator", "1,2"], [1, 2]),
                            (["--generator", "random"], "random")):
            code, out, _ = run(capsys, "analyze", "ablation", "--n", "5", "--dim", "2", *flags)
            assert code == 0
            assert json.loads(out)["fixed_generator"]["generator"] == want
        assert '"generator": [\n   1,\n   1\n  ]' in run(
            capsys, "analyze", "ablation", "--n", "5", "--dim", "2")[1]

    def test_ablation_budget_refuses_before_formatting(self, capsys, monkeypatch):
        # the fixed-generator query refuses a large dim before any payload
        # string is built: 1/n^dim alone has dim log10(n) digits
        def unformatted(x):
            raise AssertionError(f"formatted {x!r} before the budget refused")

        monkeypatch.setattr(cli, "format_rational", unformatted)
        code, out, err = run(capsys, "analyze", "ablation", "--n", "5", "--dim", "100")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "at least 2^100 terms" in err

    def test_ablation_large_dim_refused_before_boxes(self, capsys, monkeypatch):
        # the enumerated fixed-generator law refuses the dim before its
        # 2 dim box anchors are built and validated
        def unbuilt(anchor):
            raise AssertionError("boxes built before the budget refused")

        monkeypatch.setattr(cli, "AnchoredBox", unbuilt)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", "ablation", "--n", "5", "--dim", "2000000")
        assert time.perf_counter() - t0 < 2
        assert code == 3 and out == ""
        assert err == "error: enumeration too large: at least 2^2000000 terms exceeds budget 100000000\n"

    def test_ablation_needs_prime_n(self, capsys):
        for n in ("1", "4"):
            code, out, err = run(capsys, "analyze", "ablation", "--n", n, "--dim", "2")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "prime" in err

    def test_report_written_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "nuod", "--scheme", "lhs", "--n", "4",
                         "--dim", "2", "--grid", "4", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["violations"] == []
        assert (tmp_path / "report.json.manifest.json").exists()

    def test_nuod_pairs_csv(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "analyze", "nuod", "--scheme", "rsj", "--n", "5",
                         "--dim", "2", "--generator", "1,1", "--grid", "5",
                         "--pairs-csv", str(pairs))
        assert code == 1
        lines = pairs.read_text().strip().splitlines()
        assert lines[0] == "Q,R,joint,product,violation"
        assert len(lines) == 1 + 5**4
        assert "3/5;3/5,4/5;4/5,1/100,4/625,True" in lines


class TestVariance:
    def test_inline(self, capsys):
        code, out, _ = run(capsys, "variance", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--integrand", "additive",
                           "--replications", "200", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        row = payload["results"][0]
        assert row["dominates"] is True
        assert row["mc_variance_exact"] is True

    def test_unknown_integrand(self, capsys):
        code, _, err = run(capsys, "variance", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--integrand", "nope",
                           "--replications", "200", "--seed", "4")
        assert code == 2
        assert "library provides" in err

    @pytest.mark.parametrize("biased_capable, code", [(False, 1), (True, 0)])
    def test_exit_one_when_a_uniform_scheme_does_not_dominate(self, capsys, monkeypatch,
                                                              biased_capable, code):
        # a scheme that can be biased is not held to the Monte Carlo baseline
        real = cli.variance_compare
        monkeypatch.setattr(cli, "variance_compare", lambda *args: dataclasses.replace(
            real(*args), dominates=False, biased_capable=biased_capable))
        got, out, _ = run(capsys, "variance", "--scheme", "lhs", "--n", "5", "--dim", "2",
                          "--integrand", "additive", "--replications", "100")
        assert got == code
        assert json.loads(out)["results"][0]["dominates"] is False

    def test_missing_spec_usage_error(self, capsys):
        code, _, err = run(capsys, "variance", "--replications", "100")
        assert code == 2

    def test_zero_points_named_as_such(self, capsys):
        # --n 0 is given: the run reaches the size check, not the missing-spec message
        code, out, err = run(capsys, "variance", "--scheme", "lhs", "--n", "0", "--dim", "2")
        assert (code, out) == (2, "")
        assert err == "error: n must be at least 1\n"

    def test_zero_replications_rejected(self, tmp_path, capsys):
        # a given flag is set, 0 included, inline and over a config's count
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps({"replications": 150, "sizes": [[5, 2]],
                                        "schemes": [{"kind": "lhs"}], "integrands": ["additive"]}))
        for argv in (("--scheme", "lhs", "--n", "5", "--dim", "2"), ("--config", str(cfg_path))):
            code, out, err = run(capsys, "variance", *argv, "--replications", "0")
            assert code == 2 and out == ""
            assert "at least 100" in err

    def test_manifest_records_seed_used(self, tmp_path, capsys):
        # the config's seed, the default 0, and a given flag
        cfg_path = tmp_path / "batch.json"
        cfg = {"seed": 3, "replications": 100, "sizes": [[5, 2]], "schemes": [{"kind": "lhs"}],
               "integrands": ["additive"]}
        cfg_path.write_text(json.dumps(cfg))
        inline = ("--scheme", "lhs", "--n", "5", "--dim", "2", "--replications", "100")
        for argv, seed in ((("--config", str(cfg_path)), 3),
                           (("--config", str(cfg_path), "--seed", "5"), 5),
                           (inline, 0), ((*inline, "--seed", "7"), 7)):
            out = tmp_path / f"out-{seed}.json"
            assert run(capsys, "variance", *argv, "--out-json", str(out))[0] == 0
            manifest = json.loads((tmp_path / f"out-{seed}.json.manifest.json").read_text())
            assert manifest["seed"] == seed
        # the default seed runs the same stream as --seed 0
        assert run(capsys, "variance", *inline) == run(capsys, "variance", *inline, "--seed", "0")

    def test_threads_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "variance", "--scheme", "rsj", "--n", "5",
                           "--dim", "2", "--replications", "200", "--threads", "2")
        assert code == 2
        assert "--threads" in err

    def test_config_batch_with_csv(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "replications": 150,
            "sizes": [[5, 2]],
            "schemes": [
                {"kind": "rsj_lattice"},
                {"kind": "lhs"},
                {"kind": "rsj_lattice", "shift": "none"},
            ],
            "integrands": ["additive", "origin_box"],
        }
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "variance", "--config", str(cfg_path),
                         "--out-csv", str(csv_path), "--out-json", str(json_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6
        header = lines[0].split(",")
        assert "biased_capable" in header and "bias" in header
        payload = json.loads(json_path.read_text())
        flags = {(r["scheme"]["kind"], r["scheme"]["shift"]): r["biased_capable"]
                 for r in payload["results"]}
        assert flags[("rsj_lattice", "none")] is True
        assert flags[("rsj_lattice", "grid")] is False

    def test_config_batch_csv_bytes(self, tmp_path, capsys):
        # a 12-cell batch, its CSV pinned byte for byte by sha256
        cfg = {
            "seed": 11,
            "replications": 100,
            "sizes": [[5, 2], [7, 2]],
            "schemes": [
                {"kind": "rsj_lattice", "generator": [1, 2], "shift": "none", "jitter": False},
                {"kind": "lhs"},
                {"kind": "patterson"},
            ],
            "integrands": ["box_indicator", "smooth_monotone"],
        }
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "variance", "--config", str(cfg_path), "--out-csv", str(csv_path))
        assert code == 0
        data = csv_path.read_bytes()
        assert data.splitlines()[0] == (
            b"scheme,generator,shift,jitter,integrand,n,dim,replications,seed,est_mean,"
            b"est_variance,variance_stderr,mc_variance,mc_variance_exact,dominates,trivial,"
            b"biased_capable,bias")
        assert data.count(b"\n") == 13
        assert hashlib.sha256(data).hexdigest() == (
            "e28919b1f2e4dfcc4c7d1c9612745fb9d4946f5cc76f3122f969de87f3b13bb7")

    @pytest.mark.parametrize("change,key", [
        ({"sizes": [[5.9, 2]]}, "sizes"),
        ({"sizes": [[5, "2"]]}, "sizes"),
        ({"sizes": [5]}, "sizes"),
        ({"replications": 1.5}, "replications"),
        ({"seed": 1.5}, "seed"),
        ({"seed": [1]}, "seed"),
        ({"schemes": ["lhs"]}, "schemes"),
        ({"schemes": [{"shift": "none"}]}, "kind"),
        ({"schemes": [{"kind": "rsj_lattice", "generator": [1.5, 2.9]}]}, "generator"),
        ({"schemes": [{"kind": "rsj_lattice", "jitter": "yes"}]}, "jitter"),
        # a size's dim is checked before any integrand is built: product at
        # dim -1 once raised a TypeError, exit 1
        *(({"sizes": [[5, dim]], "integrands": [name]}, "dim")
          for dim in (0, -1) for name in variance._INTEGRANDS),
    ])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, change, key):
        # refused with one line naming the key, never truncated or a traceback
        cfg = {"seed": 3, "replications": 50, "sizes": [[5, 2]],
               "schemes": [{"kind": "lhs"}], "integrands": ["additive"], **change}
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "variance", "--config", str(cfg_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("argv", [
    ["generate", "--scheme", "lhs", "--n", "2", "--dim", "1000000000", "--seed", "1"],
    ["variance", "--scheme", "rsj", "--n", "5", "--dim", "300000", "--integrand", "product"],
    ["variance", "--config", "CONFIG"],
], ids=["generate", "variance-inline", "variance-config"])
def test_oversized_point_sets_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # n * dim past 2**20 exits 2 before a word is mixed or an integrand built
    def untouched(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(rng, "_words", untouched)
    monkeypatch.setattr(variance, "get_integrand", untouched)
    monkeypatch.setattr(cli, "get_integrand", untouched)
    config = tmp_path / "batch.json"
    config.write_text(json.dumps({"seed": 1, "replications": 100, "sizes": [[2, 10**9]],
                                  "schemes": [{"kind": "lhs"}], "integrands": ["product"]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *[str(config) if a == "CONFIG" else a for a in argv])
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: n * dim = ") and err.count("\n") == 1, err


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # every negdep line of README's CLI block, from an empty directory, but
    # reproduce-paper and --config, which other tests run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
             if line.startswith("negdep ") and "reproduce-paper" not in line and "--config" not in line]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
        capsys.readouterr()


class TestReproduce:
    def test_fast_subset(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--criteria", "2,5,6,7")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l.startswith("PASS")]
        assert len(lines) == 4

    def test_usage_error_exit_two(self, capsys):
        assert main(["analyze"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("criteria", ["99", "2,99"])
    def test_unknown_criterion_is_a_usage_error(self, capsys, criteria):
        # nothing runs, the known criterion of "2,99" included
        code, out, err = run(capsys, "reproduce-paper", "--criteria", criteria)
        assert (code, out) == (2, "")
        assert err == "error: unknown criteria '99'; known: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n"

    def test_criterion_ids_are_stripped(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--criteria", "2, 6")
        assert code == 0
        assert [line.split()[2] for line in out.splitlines()] == ["2", "6"]

    def test_lines_end_with_wall_seconds(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--criteria", "2,6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(re.fullmatch(r"PASS criterion [26] \(.*\): .* \[\d+\.\d{3} s\]", l) for l in lines)


NUOD = ["analyze", "nuod", "--scheme", "rsj", "--n", "5", "--dim", "2", "--generator", "1,1",
        "--grid", "5"]


class TestFileErrors:
    def test_missing_config_exit_two(self, tmp_path, capsys):
        code, out, err = run(capsys, "variance", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert out == "" and err.startswith("error: ") and "missing.json" in err

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        for flag in ("--out", "--pairs-csv"):
            code, _, err = run(capsys, *NUOD, flag, str(missing / "x"))
            assert code == 2
            assert err.startswith("error: ") and str(missing) in err
        assert not (tmp_path / "no").exists()

    def test_refused_scan_writes_no_pairs_file(self, tmp_path, capsys):
        code, out, err = run(capsys, *NUOD, "--budget", "100", "--pairs-csv",
                             str(tmp_path / "pairs.csv"))
        assert code == 3 and out == "" and "exceeds budget 100" in err
        assert list(tmp_path.iterdir()) == []


_WRITERS = {"scan": ["analyze", "nuod", "--scheme", "lhs", "--n", "3", "--dim", "2", "--grid", "3"],
            "variance": ["variance", "--config", "CONFIG"],
            "generate": ["generate", "--scheme", "lhs", "--n", "3", "--seed", "1"]}
_CLASHES = [
    ("scan", ["--pairs-csv", "x", "--out", "x"], "x and x are the same file"),
    ("scan", ["--pairs-csv", "x", "--out", "sub/../x"], "are the same file"),
    ("scan", ["--pairs-csv", "x", "--out", "link"], "are the same file"),
    ("scan", ["--pairs-csv", "x", "--out", "x.manifest.json"], "the manifest of x"),
    ("scan", ["--out", "x", "--pairs-csv", "x.manifest.json"], "the manifest of x"),
    ("scan", ["--out", "missing/x"], "its directory is missing"),
    ("scan", ["--pairs-csv", "sub"], "it is a directory"),
    ("variance", ["--out-json", "CONFIG"], "the input"),
    ("variance", ["--out-csv", "sub/../batch.json"], "the input"),
    ("variance", ["--out-csv", "x", "--out-json", "x"], "x and x are the same file"),
    ("variance", ["--out-csv", "out"], "the manifest of out and the input out.manifest.json"),
    ("variance", ["--out-json", "missing/x"], "its directory is missing"),
    ("generate", ["--out", "missing/x"], "its directory is missing"),
    ("generate", ["--out", "sub"], "it is a directory"),
]


@pytest.mark.parametrize("command,flags,message", _CLASHES,
                         ids=[f"{c}-{'-'.join(f)}" for c, f, _ in _CLASHES])
def test_clashing_outputs_refused_before_any_work(tmp_path, capsys, monkeypatch, command, flags,
                                                  message):
    # exit 2 with one error line, before the scan, batch or draw, and no file written
    def untouched(*args, **kwargs):
        raise AssertionError("work started before the output check")

    for target, name in ((cli, "_scan"), (cli, "run_variance_batch"), (rng, "_words")):
        monkeypatch.setattr(target, name, untouched)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to("x")
    config = "out.manifest.json" if "out" in flags else "batch.json"
    (tmp_path / config).write_text('{"seed": 1}')
    before = sorted(tmp_path.rglob("*"))
    argv = [config if a == "CONFIG" else a for a in _WRITERS[command] + flags]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: ") and message in err, err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / config).read_text() == '{"seed": 1}'


# -- the nuod report writer -----------------------------------------------------


def _dumped(report) -> str:
    return cli._json_text(analyzer.report_to_json_dict(report))


@pytest.mark.parametrize("spec,m,witnesses", [
    (SchemeSpec("lhs", 4, 2), 4, "none"),
    (SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1)), 5, "many"),
    (SchemeSpec("rsj_lattice", 7, 2, generator=(1, 1)), 14, "tied"),
    (SchemeSpec("rsj_lattice", 5, 1, generator=(1,), shift="none"), 5, "none"),
    (SchemeSpec("rsj_lattice", 3, 3, generator=(1, 1, 1)), 3, "many"),
], ids=["none", "rsj5", "rsj7-tied", "dim1", "dim3"])
def test_report_text_matches_json_dumps(spec, m, witnesses):
    report = analyzer.nuod_scan(spec, m)
    excesses = [w[2] - w[3] for w in report.witnesses]
    assert {"none": not excesses, "many": len(excesses) > 1,
            "tied": len(set(excesses)) < len(excesses)}[witnesses]
    assert cli._report_text(report) == _dumped(report)


def test_report_text_of_built_reports():
    # three tied witnesses at dim 1, one witness with 5000 digits past the
    # interpreter's default limit, which is back in place after the call
    boxes = [analyzer.AnchoredBox((F(k, 4),)) for k in range(3)]
    report = analyzer.DependenceReport.from_witnesses(
        SchemeSpec("lhs", 3, 1), 4, [(boxes[k], boxes[2 - k], F(1, 2), F(1, 3)) for k in range(3)])
    assert cli._report_text(report) == _dumped(report)
    big = F(10**4999 + 1, 3 * 10**4999)
    spec = SchemeSpec("lhs", 3, 2)
    Q, R = analyzer.AnchoredBox((F(1, 3), big)), analyzer.AnchoredBox((F(2, 3), F(0)))
    report = analyzer.DependenceReport.from_witnesses(spec, 3, [(Q, R, big, big / 2)])
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = cli._report_text(report)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(outer)
    assert text == _dumped(report) and "\"1" + "0" * 4998 + "1/3" in text


def test_report_written_to_file_and_stdout_alike(tmp_path, capsys):
    report = analyzer.nuod_scan(SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1)), 5)
    code, out, _ = run(capsys, *NUOD)
    assert code == 1 and out == _dumped(report)
    assert run(capsys, *NUOD, "--out", str(tmp_path / "r.json"))[:2] == (1, "")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == out


class TestParserReuse:
    def test_built_once(self, capsys, monkeypatch):
        builds = []

        def counting():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, *NUOD)[0] == 1
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_usage_error_after_success(self, capsys):
        assert run(capsys, *NUOD)[0] == 1
        code, _, err = run(capsys, "analyze")
        assert code == 2 and "usage:" in err
        assert run(capsys, *NUOD)[0] == 1

    def test_version_then_command(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.strip() == f"negdep {__version__}"
        code, out, _ = run(capsys, *NUOD)
        assert code == 1 and json.loads(out)["violations"]
        assert run(capsys, "--version") == (0, f"negdep {__version__}\n", "")

    def test_python_m_negdep_runs_the_cli(self):
        # from a checkout, with only the source directory on the path
        env = {**os.environ, "PYTHONPATH": str(Path(negdep.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-m", "negdep", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"negdep {__version__}\n", "")

    def test_pairs_csv_does_not_carry_over(self, tmp_path, capsys):
        pairs, report = tmp_path / "pairs.csv", tmp_path / "report.json"
        assert run(capsys, *NUOD, "--pairs-csv", str(pairs))[0] == 1
        pairs.unlink()
        (tmp_path / "pairs.csv.manifest.json").unlink()
        assert run(capsys, *NUOD, "--out", str(report))[0] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json",
                                                               "report.json.manifest.json"]


# -- malformed input, generated ------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
_NOT_INT = _JSON.filter(lambda v: type(v) is not int)
_NOT_LIST = _JSON.filter(lambda v: not isinstance(v, list))
# malformed for a scheme stub that runs at n = 2, dim = 1, where the only
# valid fixed generator is [1]
_BAD_RSJ_FIELD = {
    "generator": _JSON.filter(lambda g: g not in ("random", [1])),
    "shift": _JSON.filter(lambda v: v not in SHIFTS),
    "jitter": _JSON.filter(lambda v: v not in ("on", "off") and not isinstance(v, bool)),
}
_BAD_SPEC = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, dict)),
    st.fixed_dictionaries({}, optional={"shift": _JSON, "jitter": _JSON}),
    st.fixed_dictionaries({"kind": _JSON.filter(lambda v: v not in KINDS)}),
    *(st.fixed_dictionaries({"kind": st.just("rsj_lattice"), key: bad})
      for key, bad in _BAD_RSJ_FIELD.items()),
)
_BAD_SIZE = st.one_of(
    _NOT_LIST,
    st.lists(st.integers(1, 3), max_size=3).filter(lambda v: len(v) != 2),
    st.tuples(_NOT_INT, st.integers(1, 2)).map(list),
    st.tuples(st.integers(1, 2), _NOT_INT).map(list),
    st.tuples(st.integers(-5, 0) | st.integers(513, 10**6), st.just(1)).map(list),
    st.tuples(st.just(2), st.integers(-5, 0)).map(list),
)
_BAD_INTEGRAND = _JSON.filter(lambda v: v not in ("additive", "product", "box_indicator",
                                                  "origin_box", "smooth_monotone", "constant"))
_DROP = object()
_BAD_FIELD = st.one_of(
    st.tuples(st.sampled_from(["replications", "sizes", "schemes", "integrands"]), st.just(_DROP)),
    st.tuples(st.just("replications"), _NOT_INT | st.integers(-10**6, 99)),
    st.tuples(st.just("seed"), _NOT_INT),
    st.tuples(st.just("sizes"), _NOT_LIST | st.lists(_BAD_SIZE, min_size=1, max_size=2)),
    st.tuples(st.just("schemes"), _NOT_LIST | st.lists(_BAD_SPEC, min_size=1, max_size=2)),
    st.tuples(st.just("integrands"), _NOT_LIST | st.lists(_BAD_INTEGRAND, min_size=1, max_size=2)),
)


def _with_bad_field(field):
    # a valid, cheap config with one field dropped or made malformed
    cfg = {"seed": 3, "replications": 100, "sizes": [[2, 1]],
           "schemes": [{"kind": "rsj_lattice"}], "integrands": ["additive"]}
    key, value = field
    if value is _DROP:
        del cfg[key]
    else:
        cfg[key] = value
    return cfg


_BAD_CONFIG = _BAD_FIELD.map(_with_bad_field) | _JSON.filter(lambda v: not isinstance(v, dict))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(cfg=_BAD_CONFIG)
def test_malformed_configs_exit_two_with_one_line(tmp_path, capsys, cfg):
    # exit 2, stdout empty, one "error:" line, never an exception out of main
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "variance", "--config", str(cfg_path))
    assert (code, out) == (2, ""), (cfg, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (cfg, err)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=_BAD_SPEC)
def test_malformed_spec_dicts_raise_value_error(spec):
    # the same malformed stubs, sized: only ValueError, which the CLI maps to 2
    d = {**spec, "n": 2, "dim": 1} if isinstance(spec, dict) else spec
    with pytest.raises(ValueError):
        spec_from_dict(d)


# -- malformed argv, generated -------------------------------------------------

# tokens that int() refuses, and tokens that parse_rational refuses
_NOT_INT = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "1e3", "0x10", "--", "1/0", "2.0"]),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(2, 9)),
)
_NOT_RATIONAL = st.sampled_from(["", "x", "nan", "inf", "1/0", "3/0", "1//2", "0.5.1"])
_UNIT = st.builds(lambda k, d: F(k % d, d), st.integers(0, 12), st.integers(1, 13))
_OFF_UNIT = st.sampled_from(["1", "13/13", "7/5", "3", "1.0", "-1/3", "-0.25", "-2"])


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _entry(flag: str, old: list, token):
    """flag=old with one entry replaced by a token."""
    return st.tuples(st.integers(0, len(old) - 1), token).map(
        lambda it: f"{flag}={_join(old[:it[0]] + [it[1]] + old[it[0] + 1:])}")


def _arity(flag: str, entry, size: int):
    """A comma-separated flag of any length but size."""
    return st.sampled_from([k for k in range(1, 5) if k != size]).flatmap(
        lambda k: st.lists(entry, min_size=k, max_size=k)).map(lambda v: f"{flag}={_join(v)}")


_COMMANDS = ["generate", "pairprob", "nuod", "copula", "independence", "triple", "ablation"]


@st.composite
def _bad_argv(draw, command):
    """(argv, exit code): generate or an analyze subcommand with one malformed token."""
    n, dim = draw(st.sampled_from([5, 7, 11, 13])), draw(st.integers(2, 3))
    vector = st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim)
    a, g, steps = draw(vector), draw(vector.map(lambda v: [x % (n - 1) + 1 for x in v])), draw(vector)
    b = [(x + y % (n - 1) + 1) % n for x, y in zip(a, steps)]  # b differs from a everywhere
    Q, R = (draw(st.lists(_UNIT, min_size=dim, max_size=dim)) for _ in "QR")
    rsj = ["--scheme=rsj", f"--n={n}", f"--dim={dim}"]
    commands = {
        "generate": ["generate", *rsj, "--seed=3"],
        "pairprob": ["analyze", "pairprob", *rsj, f"--Q={_join(Q)}", f"--R={_join(R)}"],
        "nuod": ["analyze", "nuod", *rsj, "--grid=4"],
        "copula": ["analyze", "copula", *rsj],
        "independence": ["analyze", "independence", *rsj],
        "triple": ["analyze", "triple", f"--n={n}", f"--dim={dim}", f"--a={_join(a)}",
                   f"--b={_join(b)}"],
        "ablation": ["analyze", "ablation", f"--n={n}", f"--dim={dim}"],
    }
    argv = commands[command]
    ints = [t.split("=")[0] for t in argv if t.split("=")[0] in ("--n", "--dim", "--seed", "--grid")]
    usage = [
        st.tuples(st.sampled_from(ints), _NOT_INT).map("=".join),
        # not prime: rsj, triple and ablation all need a prime n
        st.sampled_from([0, 1, 4, 6, 8, 9, 10, 12]).map(lambda m: f"--n={m}"),
    ]
    refused = []
    if command != "triple":
        # a generator entry that is zero mod n, or not an integer
        usage.append(_entry("--generator", g, st.sampled_from([0, n, 2 * n]) | _NOT_INT))
    if command == "pairprob":
        usage += [_entry("--Q", Q, _NOT_RATIONAL | _OFF_UNIT), _arity("--R", _UNIT, dim)]
    if command == "nuod":
        usage.append(st.integers(-10**12, 0).map(lambda m: f"--grid={m}"))
        refused.append(st.integers(10**5, 10**12).map(lambda m: f"--grid={m}"))
    if command == "triple":
        usage += [_entry("--b", b, _NOT_INT | st.sampled_from([-1, n, 99])),
                  _arity("--a", st.integers(0, n - 1), dim)]
    if command == "ablation":
        eps = _NOT_RATIONAL | st.sampled_from(["0", "-1/26", "27/52", "0.6", "1", "2"])
        usage.append(eps.map(lambda e: f"--epsilon={e}"))
    defect, code = draw(st.one_of([s.map(lambda t: (t, 2)) for s in usage]
                                  + [s.map(lambda t: (t, 3)) for s in refused]))
    flag = defect.split("=")[0]
    return [t for t in argv if t.split("=")[0] != flag] + [defect], code


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_argv_exits_two_without_traceback(capsys, command, data):
    # one malformed token in a valid command: exit 2 (a huge grid: 3, at
    # once), nothing on stdout, an error line, never an exception out of main
    argv, want = data.draw(_bad_argv(command))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want, ""), (argv, err)
    assert "error: " in err and "Traceback" not in err, (argv, err)
    assert time.perf_counter() - t0 < 2, argv


_BOXES = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[_UNIT] * d).map(analyzer.AnchoredBox), min_size=1, max_size=4))
_PROBS = st.lists(st.fractions(0, 1, max_denominator=10**30), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(boxes=_BOXES, probs=_PROBS, picks=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=8))
def test_report_text_matches_json_dumps_generated(boxes, probs, picks):
    # witnesses that share, repeat and tie boxes and probabilities
    spec = SchemeSpec("lhs", 3, boxes[0].dim)
    witnesses = [(boxes[q % len(boxes)], boxes[r % len(boxes)], probs[j % len(probs)],
                  probs[p % len(probs)]) for q, r, j, p in picks]
    report = analyzer.DependenceReport.from_witnesses(spec, 3, witnesses)
    assert cli._report_text(report) == _dumped(report)
