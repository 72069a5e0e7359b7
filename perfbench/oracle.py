"""Operations and the correctness oracle that judges each one.

An operation is one closed-loop call into the program.  Its key spells out
every input, so a pinned reference recorded under that key is valid for any
seed that happens to produce the same inputs; the default seed's keys are
all pinned.  Every operation also carries checks that hold for any seed.
"""

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

REFS_DIR = Path(__file__).resolve().parent / "refs"


@dataclass
class Op:
    """`run()` makes the call(s) and returns the raw output.  `canon(raw)`
    maps it to the JSON value pinned as reference.  `check(raw, prior)`
    returns a list of problems; `prior` maps the keys of earlier operations
    in the same pass to their raw outputs."""

    key: str
    phase: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    check: Optional[Callable[[object, dict], list]] = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str) -> dict:
    path = refs_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def judge(op: Op, raw, refs: dict, prior: dict) -> list:
    """Problems with one operation's output; empty when it is correct."""
    problems = []
    if op.key in refs:
        got = op.canon(raw)
        if got != refs[op.key]:
            problems.append(f"{op.key}: {got!r} differs from reference {refs[op.key]!r}")
    if op.check is not None:
        problems.extend(f"{op.key}: {p}" for p in op.check(raw, prior))
    return problems
