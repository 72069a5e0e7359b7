"""Command-line front end.

Subcommands: generate (point sets), analyze (exact dependence queries),
variance (replication studies), reproduce-paper (the built-in acceptance
suite).  Exit codes: 0 success / no violation, 1 violation found,
2 usage error, 3 enumeration budget exceeded.

Anchors and generators arrive as decimal or fraction strings and are parsed
into exact rationals; binary floats never enter the exact path.  Every
file output is accompanied by a <path>.manifest.json recording the command,
arguments, seed, tool version and wall-clock duration; reruns with equal
arguments produce byte-identical data files.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .analyzer import (
    DEFAULT_BUDGET,
    AnchoredBox,
    BudgetExceededError,
    HypothesisViolatedError,
    UnsupportedSchemeError,
    _law,
    _pair_query,
    _power,
    _scan,
    copula_equality_check,
    coordinate_independence_check,
    no_shift_mass,
    report_to_json_dict,
    shift_only_conditional,
    triple_distinguisher,
)
from .exact import any_digits, format_rational, parse_rational
from .schemes import SchemeSpec, patterson_spec, spec_to_dict
from .variance import (
    get_integrand,
    load_batch_config,
    result_csv_header,
    result_csv_row,
    result_to_json_dict,
    run_variance_batch,
    variance_compare,
)
from .rng import RngStream
from .samplers import _check_size

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_SCHEME_ALIASES = {
    "stratified": "stratified1d",
    "lhs": "lhs",
    "patterson": "patterson",
    "rsj": "rsj_lattice",
}
_SHIFT_ALIASES = {"grid": "grid", "torus": "continuous_torus", "none": "none"}


def _parse_generator(text):
    if text is None or text == "random":
        return "random"
    return tuple(int(v) for v in text.split(","))


def _parse_anchor(text, dim):
    vals = tuple(parse_rational(v) for v in text.split(","))
    if len(vals) != dim:
        raise ValueError(f"anchor has {len(vals)} coordinates, expected {dim}")
    return AnchoredBox(vals)


def _spec_from_args(args) -> SchemeSpec:
    return SchemeSpec(
        kind=_SCHEME_ALIASES[args.scheme],
        n=args.n,
        dim=args.dim,
        generator=_parse_generator(getattr(args, "generator", None)),
        shift=_SHIFT_ALIASES[getattr(args, "shift", "grid")],
        jitter=getattr(args, "jitter", "on") == "on",
    )


class _FileOnFirstWrite:
    """A text file created by its first write: a scan refused before it writes leaves none."""

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8")
        self.fh.write(text)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _write(path: str, text: str, argv, seed, t0, extra=None) -> None:
    """text to the file at path and its manifest, or to stdout when path is empty."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _write_manifest(path, argv, seed, t0, extra)


def _write_manifest(path: str, argv, seed, t0, extra=None) -> None:
    """<path>.manifest.json for a data file already written at path."""
    manifest = {
        "command": "negdep " + " ".join(argv),
        "argv": list(argv),
        "seed": seed,
        "tool_version": __version__,
        "outputs": [path],
        "duration_seconds": time.perf_counter() - t0,
    }
    if extra:
        manifest.update(extra)
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


def _json_text(payload: dict) -> str:
    with any_digits():  # exact counts of any size
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# -- generate ------------------------------------------------------------------


def _cmd_generate(args, argv, t0) -> int:
    from .samplers import generate, point_set_to_csv, point_set_to_json

    spec = _spec_from_args(args)
    ps = generate(spec, args.seed)
    data = point_set_to_csv(ps) if args.format == "csv" else point_set_to_json(ps) + "\n"
    _write(args.out, data, argv, args.seed, t0, extra={"scheme": spec_to_dict(spec)})
    return EXIT_OK


# -- analyze -------------------------------------------------------------------


def _box_query(spec: SchemeSpec, Q: AnchoredBox, R: AnchoredBox, budget: int) -> tuple:
    """The Q, R, joint, product and violation fields of a box query, and its joint and product."""
    joint, marg_q, marg_r = _pair_query(spec, Q, R, budget=budget)
    prodv = marg_q * marg_r
    fields = {
        "Q": [format_rational(a) for a in Q.anchor],
        "R": [format_rational(a) for a in R.anchor],
        "joint": format_rational(joint),
        "product": format_rational(prodv),
        "violation": joint > prodv,
    }
    return fields, joint, prodv


def _cmd_analyze(args, argv, t0) -> int:
    budget = args.budget
    sub = args.analysis
    code = EXIT_OK

    if sub == "pairprob":
        spec = _spec_from_args(args)
        Q = _parse_anchor(args.Q, spec.dim)
        R = _parse_anchor(args.R, spec.dim)
        fields, joint, prodv = _box_query(spec, Q, R, budget)
        payload = {"scheme": spec_to_dict(spec), **fields,
                   "joint_decimal": float(joint), "product_decimal": float(prodv)}

    elif sub == "nuod":
        spec = _spec_from_args(args)
        if args.pairs_csv:
            # the rows go to the file block by block; the manifest follows them
            with contextlib.closing(_FileOnFirstWrite(args.pairs_csv)) as rows:
                report = _scan(spec, args.grid, budget, csv_out=rows)
            _write_manifest(args.pairs_csv, argv, None, t0)
        else:
            report = _scan(spec, args.grid, budget)
        payload = report_to_json_dict(report)
        code = EXIT_OK if report.ok else EXIT_VIOLATION

    elif sub == "copula":
        spec = _spec_from_args(args)
        cc = copula_equality_check(args.n, args.dim, spec=spec, budget=budget)
        payload = {
            "scheme": spec_to_dict(spec),
            "equal": cc.equal,
            "max_discrepancy": format_rational(cc.max_discrepancy),
        }

    elif sub == "independence":
        spec = _spec_from_args(args)
        rep = coordinate_independence_check(args.n, args.dim, spec=spec, budget=budget)
        payload = {"scheme": spec_to_dict(spec), "independent": rep.ok}
        if rep.witness is not None:
            payload["witness"] = {
                "subset": list(rep.witness["subset"]),
                "cells": [list(c) for c in rep.witness["cells"]],
                "joint": format_rational(rep.witness["joint"]),
                "product": format_rational(rep.witness["product"]),
            }

    elif sub == "triple":
        a = tuple(int(v) for v in args.a.split(","))
        b = tuple(int(v) for v in args.b.split(","))
        lat, lhsc = triple_distinguisher(args.n, args.dim, a, b, budget=budget)
        payload = {"n": args.n, "dim": args.dim, "a": list(a), "b": list(b),
                   "lattice": lat, "lhs": lhsc}

    elif sub == "ablation":
        n, dim = args.n, args.dim
        eps_val = parse_rational(args.epsilon) if args.epsilon is not None else Fraction(1, 2 * n)
        mass = no_shift_mass(n, dim)

        so_spec = SchemeSpec("rsj_lattice", n, dim, shift="continuous_torus", jitter=False)
        cond = shift_only_conditional(so_spec, eps_val, budget=budget)
        lam_q = 1 - eps_val / 2
        pat = shift_only_conditional(patterson_spec(n, dim), eps_val, budget=budget)

        gen = _parse_generator(args.generator) if args.generator is not None else (1,) * dim
        fg_spec = SchemeSpec("rsj_lattice", n, dim, generator=gen)
        if not _law(fg_spec).factorized:
            # the query enumerates the law, whose budget (_pair_counts) refuses
            # a large dim; refuse it before the 2 dim anchors are built
            _power(n, dim, budget, "enumeration", "terms")
        Q = AnchoredBox((Fraction(n - 2, n),) * dim)
        R = AnchoredBox((Fraction(n - 1, n),) * dim)
        fixed_generator, _, _ = _box_query(fg_spec, Q, R, budget)

        # formatted only now: 1/n^dim has dim log10(n) digits, and the
        # query above refuses a large dim first
        uniform = Fraction(1, n**dim)
        payload = {
            "n": n,
            "dim": dim,
            "no_shift": {
                "first_cell_mass": format_rational(mass),
                "uniform_would_give": format_rational(uniform),
                "sampling_scheme": mass == uniform,
            },
            "fixed_distance": {
                "epsilon": format_rational(eps_val),
                "conditional": format_rational(cond),
                "patterson_conditional": format_rational(pat),
                "box_volume": format_rational(lam_q),
                "negatively_dependent": cond <= lam_q,
            },
            "fixed_generator": {"generator": spec_to_dict(fg_spec)["generator"], **fixed_generator},
        }

    else:
        raise ValueError(f"unknown analysis {sub!r}")
    _write(args.out, _json_text(payload), argv, None, t0)
    return code


# -- variance ------------------------------------------------------------------


def _results_to_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result_csv_header())
    for res in results:
        writer.writerow(result_csv_row(res))
    return buf.getvalue()


def _cmd_variance(args, argv, t0) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = load_batch_config(fh.read())
        # a flag that is given is set, 0 included: variance_compare rejects it
        if args.replications is not None:
            cfg["replications"] = args.replications
        if args.seed is not None:
            cfg["seed"] = args.seed
        results = run_variance_batch(cfg)  # checks every key, the seed an integer
        seed = cfg.get("seed", 0)
    else:
        spec = _spec_from_args(args)
        _check_size(spec.n, spec.dim)
        f = get_integrand(args.integrand, spec.dim)
        reps = 1000 if args.replications is None else args.replications
        seed = 0 if args.seed is None else args.seed
        results = [variance_compare(f, spec, reps, RngStream(seed))]

    if args.out_csv:
        _write(args.out_csv, _results_to_csv(results), argv, seed, t0)
    if args.out_json or not args.out_csv:  # the JSON goes to stdout when neither file is named
        _write(args.out_json, _json_text({"results": [result_to_json_dict(r) for r in results]}),
               argv, seed, t0)
    failed = [r for r in results if not r.dominates and not r.biased_capable]
    return EXIT_VIOLATION if failed else EXIT_OK


# -- reproduce-paper -------------------------------------------------------------


def _cmd_reproduce(args, argv, t0) -> int:
    from .acceptance import run_acceptance

    ids = args.criteria.split(",") if args.criteria else None
    ok = run_acceptance(ids=ids)
    return EXIT_OK if ok else EXIT_VIOLATION


# -- parser -----------------------------------------------------------------------


def _add_spec_flags(p, need_seed=False, required=True):
    p.add_argument("--scheme", required=required, choices=sorted(_SCHEME_ALIASES))
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--generator", default=None,
                   help="comma-separated field integers, or 'random'")
    p.add_argument("--shift", choices=sorted(_SHIFT_ALIASES), default="grid")
    p.add_argument("--jitter", choices=["on", "off"], default="on")
    if need_seed:
        p.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="negdep",
        description="Negatively dependent sampling schemes: generation, exact "
                    "dependence analysis, and variance experiments.",
    )
    ap.add_argument("--version", action="version", version=f"negdep {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a point set")
    _add_spec_flags(g, need_seed=True)
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.add_argument("--out", default=None, help="output path (stdout if omitted)")

    a = sub.add_parser("analyze", help="exact dependence analysis")
    asub = a.add_subparsers(dest="analysis", required=True)

    def common_analysis_flags(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration term budget (default 1e8)")
        p.add_argument("--out", default=None)

    pp = asub.add_parser("pairprob", help="joint anchored-box probability")
    _add_spec_flags(pp)
    pp.add_argument("--Q", required=True, help="comma-separated anchor, e.g. 0.6,0.6")
    pp.add_argument("--R", required=True)
    common_analysis_flags(pp)

    nu = asub.add_parser("nuod", help="scan joint <= product over a box grid")
    _add_spec_flags(nu)
    nu.add_argument("--grid", type=int, required=True, help="anchors at k/grid")
    nu.add_argument("--pairs-csv", default=None,
                    help="also write one CSV row per probed (Q, R) pair")
    common_analysis_flags(nu)

    cp = asub.add_parser("copula", help="compare pair cell law with lhs")
    _add_spec_flags(cp)
    common_analysis_flags(cp)

    ind = asub.add_parser("independence", help="coordinate factorization check")
    _add_spec_flags(ind)
    common_analysis_flags(ind)

    tr = asub.add_parser("triple", help="containment counts for a cell-vector pair")
    tr.add_argument("--n", type=int, required=True)
    tr.add_argument("--dim", type=int, required=True)
    tr.add_argument("--a", required=True, help="comma-separated cells")
    tr.add_argument("--b", required=True)
    common_analysis_flags(tr)

    ab = asub.add_parser("ablation", help="run the minimal-randomness probes")
    ab.add_argument("--n", type=int, required=True)
    ab.add_argument("--dim", type=int, required=True)
    ab.add_argument("--epsilon", default=None, help="distance bound (default 1/(2n))")
    ab.add_argument("--generator", default=None)
    common_analysis_flags(ab)

    v = sub.add_parser("variance", help="replication variance study")
    v.add_argument("--config", default=None, help="JSON batch config path")
    _add_spec_flags(v, required=False)
    v.add_argument("--integrand", default="additive")
    v.add_argument("--replications", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out-csv", default=None)
    v.add_argument("--out-json", default=None)

    r = sub.add_parser("reproduce-paper", help="run the built-in acceptance suite")
    r.add_argument("--criteria", default=None, help="comma-separated ids, e.g. 1,3,8")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and reused by every later main()."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    # argparse takes "--n=--" as an empty list, unconverted; no option here takes a list
    if any(isinstance(v, list) for v in vars(args).values()):
        print("error: an option was given '--' as its value", file=sys.stderr)
        return EXIT_USAGE

    t0 = time.perf_counter()
    try:
        if args.command == "generate":
            return _cmd_generate(args, argv, t0)
        if args.command == "analyze":
            return _cmd_analyze(args, argv, t0)
        if args.command == "variance":
            if not args.config and (args.scheme is None or args.n is None):
                print("error: provide --config or --scheme/--n", file=sys.stderr)
                return EXIT_USAGE
            return _cmd_variance(args, argv, t0)
        if args.command == "reproduce-paper":
            return _cmd_reproduce(args, argv, t0)
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UnsupportedSchemeError, HypothesisViolatedError, ValueError, OSError) as exc:
        # OSError: an input file that cannot be read, an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
