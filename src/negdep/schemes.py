"""Declarative scheme specifications.

A SchemeSpec fully determines a sampling construction, including the
randomization ablations of the shifted-lattice scheme (generator fixed or
random, shift on the 1/N grid / continuous on the torus / absent, jitter
on or off).  Specs are immutable and hashable so they can key caches and
round-trip through JSON.
"""

import operator
from dataclasses import dataclass

from .exact import is_prime

__all__ = [
    "KINDS",
    "SHIFTS",
    "SchemeSpec",
    "full_rsj",
    "lhs_spec",
    "patterson_spec",
    "stratified_spec",
    "is_full_rsj",
    "is_marginally_uniform",
    "spec_to_dict",
    "spec_from_dict",
]

KINDS = ("stratified1d", "lhs", "patterson", "rsj_lattice")
SHIFTS = ("grid", "continuous_torus", "none")

# Only the shifted-lattice kind consumes the randomization flags; for the
# other kinds they are recorded as these defaults.
_DEFAULT_GENERATOR = "random"
_DEFAULT_SHIFT = "grid"
_DEFAULT_JITTER = True


def _integer(value) -> int:
    """value as an int: ints and numpy integers pass; a bool, a float and the rest raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class SchemeSpec:
    """Description of one sampling scheme (or ablation) at size (n, dim).

    n, dim and the generator entries are integers (numpy integers are
    stored as int; bools and floats raise TypeError).
    generator: "random", or a tuple of field integers in {1,..,n-1}.
    shift: "grid" (uniform on the 1/n lattice), "continuous_torus"
           (uniform on [0,1)^d), or "none".
    jitter: per-point iid uniform offset on [0, 1/n)^d when True.
    """

    kind: str
    n: int
    dim: int
    generator: object = _DEFAULT_GENERATOR
    shift: str = _DEFAULT_SHIFT
    jitter: bool = _DEFAULT_JITTER

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "dim", _integer(self.dim))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.kind == "stratified1d" and self.dim != 1:
            raise ValueError("stratified1d requires dim=1")
        if self.kind == "rsj_lattice":
            if not is_prime(self.n):
                raise ValueError(f"N must be prime for rsj_lattice (got {self.n})")
            if self.shift not in SHIFTS:
                raise ValueError(f"unknown shift {self.shift!r}; expected one of {SHIFTS}")
            if not (isinstance(self.generator, str) and self.generator == "random"):
                g = tuple(map(_integer, self.generator))
                if len(g) != self.dim:
                    raise ValueError(f"generator length {len(g)} does not match dim {self.dim}")
                if any(not 1 <= v < self.n for v in g):
                    raise ValueError(
                        f"degenerate generator: coordinates must lie in 1..N-1 = 1..{self.n - 1}, not {g}"
                    )
                object.__setattr__(self, "generator", g)
            object.__setattr__(self, "jitter", bool(self.jitter))
        else:
            # flags unused by this kind: record defaults so equal constructions
            # compare equal and regeneration keys are canonical
            object.__setattr__(self, "generator", _DEFAULT_GENERATOR)
            object.__setattr__(self, "shift", _DEFAULT_SHIFT)
            object.__setattr__(self, "jitter", _DEFAULT_JITTER)


def full_rsj(n: int, dim: int) -> SchemeSpec:
    """The fully randomized shifted-and-jittered lattice scheme."""
    return SchemeSpec("rsj_lattice", n, dim)


def lhs_spec(n: int, dim: int) -> SchemeSpec:
    return SchemeSpec("lhs", n, dim)


def patterson_spec(n: int, dim: int) -> SchemeSpec:
    return SchemeSpec("patterson", n, dim)


def stratified_spec(n: int) -> SchemeSpec:
    return SchemeSpec("stratified1d", n, 1)


def is_full_rsj(spec: SchemeSpec) -> bool:
    return (
        spec.kind == "rsj_lattice"
        and spec.generator == "random"
        and spec.shift == "grid"
        and spec.jitter
    )


def is_marginally_uniform(spec: SchemeSpec) -> bool:
    """Whether every point of the scheme is uniform on [0,1)^dim.

    stratified1d and lhs stratify each coordinate with a uniform in-cell
    offset, so they are uniform.  patterson pins points to cell midpoints
    (discrete marginal).  The lattice scheme is uniform iff the grid shift
    is combined with jitter, or the shift is continuous on the torus;
    without a shift the first cell is hit with probability 1/n regardless
    of dim, and without jitter a grid shift leaves the marginal discrete.
    """
    if spec.kind in ("stratified1d", "lhs"):
        return True
    if spec.kind == "patterson":
        return False
    if spec.shift == "none":
        return False
    if spec.shift == "continuous_torus":
        return True
    return spec.jitter


def spec_to_dict(spec: SchemeSpec) -> dict:
    gen = spec.generator if spec.generator == "random" else list(spec.generator)
    return {
        "kind": spec.kind,
        "n": spec.n,
        "dim": spec.dim,
        "generator": gen,
        "shift": spec.shift,
        "jitter": "on" if spec.jitter else "off",
    }


def _as_int(value, key: str) -> int:
    """value as an int, for JSON input: ints and numpy integers pass.

    bool, float, str and everything else raise ValueError naming key, so a
    5.7 is refused rather than truncated.
    """
    try:
        return _integer(value)
    except TypeError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def spec_from_dict(d: dict) -> SchemeSpec:
    if not isinstance(d, dict):
        raise ValueError(f"scheme spec must be an object, got {d!r}")
    for key in ("kind", "n", "dim"):
        if key not in d:
            raise ValueError(f"scheme spec missing key {key!r}")
    gen = d.get("generator", "random")
    if gen != "random":
        if not isinstance(gen, (list, tuple)):
            raise ValueError(f"generator must be 'random' or a list of integers, got {gen!r}")
        gen = tuple(_as_int(v, "generator") for v in gen)
    jitter = d.get("jitter", "on")
    if not isinstance(jitter, bool):
        if jitter not in ("on", "off"):
            raise ValueError(f"jitter must be 'on', 'off' or a bool, got {jitter!r}")
        jitter = jitter == "on"
    return SchemeSpec(
        kind=d["kind"],
        n=_as_int(d["n"], "n"),
        dim=_as_int(d["dim"], "dim"),
        generator=gen,
        shift=d.get("shift", _DEFAULT_SHIFT),
        jitter=jitter,
    )
