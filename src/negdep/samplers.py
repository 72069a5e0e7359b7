"""Point-set generation for every supported scheme.

``generate(spec, seed)`` is the one public way to draw a point set, and
one drawer, ``_draw_block``, draws every point set: generate's one stream
and the variance lab's blocks of substreams alike.  It dispatches on the
spec's kind to the lattice or to the latin sampler (stratified, lhs and
patterson).

Coordinates are held exactly: each coordinate is an integer numerator over
the common denominator n * 2**53, i.e. cell index times 2**53 plus a 53-bit
in-cell offset.  The rational view is exact; the float view is a derived
export.  Regenerating from (spec, seed) is bit-identical.

Draw order is pinned so seeds stay stable: generator, then shift, then
permutation(s), then jitters in point order (coordinates within a point).
The samplers only draw; they do not size their streams.  ``generate``
reserves the words a point set will likely draw (``_draw_words``: two per
rejection-sampled integer, jitters exactly) on a stream it makes from an
integer seed, so that point set is normally mixed in one numpy block.
The variance lab reads its replications ``rng.split(k)`` a block of
substreams at a time (``_stream_blocks``); the drawer returns a block's
numerators stacked, row-identical to ``generate`` on each substream: every
lattice stream makes its scalar draws in the pinned order, then the cell
matrix, shift, jitter and wrap run once per block.  Latin kinds are drawn
one stream at a time (``_latin``).  Neither changes a draw.
"""

import csv
import io
import json
import re

import numpy as np

from .exact import Rational
from .rng import FRAC_BITS, RngStream
from .schemes import SchemeSpec, _as_int, spec_from_dict, spec_to_dict

__all__ = [
    "MAX_N",
    "MAX_COORDINATES",
    "PointSet",
    "generate",
    "rsj_cell_matrix",
    "point_set_to_csv",
    "point_set_to_json",
    "point_set_from_json",
    "point_set_from_csv",
]

_FRAC_ONE = 1 << FRAC_BITS

# Coordinate numerators live in [0, n * 2**53) and all intermediate sums fit
# int64 for n up to this cap; plenty for desk scale.
MAX_N = 512
# A point set holds n * dim coordinates: 8 MB of int64 numerators at this
# cap, which is checked before any word is drawn or any array built.
MAX_COORDINATES = 2**20

_BELOW_ONE = np.nextafter(1.0, 0.0)


class PointSet:
    """n points in [0,1)^dim with exact coordinates and scheme metadata."""

    __slots__ = ("nums", "spec", "seed")

    def __init__(self, nums: np.ndarray, spec: SchemeSpec, seed: int):
        nums = np.asarray(nums, dtype=np.int64)
        if nums.ndim != 2 or nums.shape != (spec.n, spec.dim):
            raise ValueError(f"expected shape ({spec.n}, {spec.dim}), got {nums.shape}")
        _check_range(nums, spec.n)
        self.nums = nums
        self.spec = spec
        self.seed = int(seed)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim(self) -> int:
        return self.spec.dim

    def cells(self) -> np.ndarray:
        """Integer cell index per coordinate (which 1/n stratum)."""
        return self.nums >> FRAC_BITS

    def offsets(self) -> np.ndarray:
        """53-bit in-cell offsets."""
        return self.nums & (_FRAC_ONE - 1)

    def rationals(self) -> list:
        den = self.n * _FRAC_ONE
        return [[Rational(int(v), den) for v in row] for row in self.nums]

    def floats(self) -> np.ndarray:
        """Coordinates as float64 in [0, 1).

        Numerators within a few ulps of n * 2**53 round up to 1.0 in the
        division; they are clamped to the largest float below 1.
        """
        return _unit_floats(self.nums, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.spec == other.spec
            and self.seed == other.seed
            and np.array_equal(self.nums, other.nums)
        )

    def __repr__(self):
        return f"PointSet(n={self.n}, dim={self.dim}, kind={self.spec.kind!r}, seed={self.seed})"


def _check_range(nums: np.ndarray, n: int) -> None:
    """Refuse coordinate numerators outside [0, n * 2**53) (ValueError)."""
    if nums.min(initial=0) < 0 or (nums.size and nums.max() >= n * _FRAC_ONE):
        raise ValueError("coordinate numerators outside [0, n * 2**53)")


def _unit_floats(nums: np.ndarray, n: int) -> np.ndarray:
    # the float export of numerators over n * 2**53, rows of any number of
    # point sets at once: divide, then clamp to [0, 1)
    out = nums / float(n * _FRAC_ONE)
    return np.minimum(out, _BELOW_ONE, out=out)


def _check_size(n: int, dim: int) -> None:
    """Refuse n or dim below 1, more than MAX_N points or more than MAX_COORDINATES coordinates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n is capped at {MAX_N} (exact int64 coordinate encoding)")
    if n * dim > MAX_COORDINATES:
        raise ValueError(f"n * dim = {n * dim} exceeds the cap of {MAX_COORDINATES} coordinates")


def _perm_words(n: int) -> int:
    # words permutation(n) likely draws: n - 1 steps, under 2 words each
    return 2 * (n - 1)


def _draw_words(spec: SchemeSpec) -> int:
    """Words one point set of spec likely draws, after checking its size.

    Two per generator entry (integer(1) draws none) and per shift cell, one
    more per torus fraction, the permutations, then one per jitter.
    """
    n, dim = spec.n, spec.dim
    _check_size(n, dim)
    jitter = n * dim if spec.jitter and spec.kind != "patterson" else 0
    if spec.kind != "rsj_lattice":
        return dim * _perm_words(n) + jitter
    gen_words = 2 if spec.generator == "random" and n > 2 else 0
    shift_words = {"grid": 2, "continuous_torus": 3, "none": 0}[spec.shift]
    return dim * (gen_words + shift_words) + _perm_words(n) + jitter


def _latin(spec: SchemeSpec, rng: RngStream) -> np.ndarray:
    # the numerators of one stratified1d, lhs or patterson point set: one
    # stratum permutation per coordinate, then iid jitter in the cell (one
    # call, point-major: point order, coordinates within a point) or the
    # exact cell midpoint
    n, dim = spec.n, spec.dim
    cells = np.empty((n, dim), dtype=np.int64)
    for i in range(dim):
        cells[:, i] = rng.permutation(n)
    if spec.kind != "patterson":
        offsets = rng.bits53_array(n * dim).astype(np.int64).reshape(n, dim)
    else:
        offsets = 1 << (FRAC_BITS - 1)  # exact midpoint 1/2
    return (cells << FRAC_BITS) + offsets


def rsj_cell_matrix(g, shift_cells, n: int) -> np.ndarray:
    """Cell indices of the shifted lattice, row m = cells of point m.

    Pure function of (generator, grid shift), the cells the drawer gives
    point m before the permutation; used by exhaustive structural checks.
    """
    g = np.asarray(g, dtype=np.int64)
    s = np.asarray(shift_cells, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64).reshape(n, 1)
    return (idx * g + s) % n


def _lattice_draws(spec: SchemeSpec, rng: RngStream):
    """The scalar draws of one lattice point set in the pinned order:
    generator, shift, permutation.  Returns (g, shift cells, shift
    fractions, perm) as lists; the fractions are 0 but on the torus."""
    n, dim = spec.n, spec.dim
    if spec.generator == "random":
        g = [rng.integer(n - 1) + 1 for _ in range(dim)]
    else:
        g = list(spec.generator)
    frac = [0] * dim
    if spec.shift == "grid":
        s = [rng.integer(n) for _ in range(dim)]
    elif spec.shift == "continuous_torus":
        # uniform on [0,1) per coordinate, drawn as cell part plus 53-bit part
        s = []
        for i in range(dim):
            s.append(rng.integer(n))
            frac[i] = rng.bits53()
    else:
        s = [0] * dim
    return g, s, frac, rng.permutation(n)


def generate(spec: SchemeSpec, seed: "int | RngStream") -> PointSet:
    """Generate the point set for (spec, seed); bit-identical on replay.

    seed is an integer or an RngStream, which is drawn from in place;
    generate(spec, s) equals generate(spec, RngStream(s)).  A stream made
    here from an integer seed first reserves the words the point set will
    likely draw (_draw_words); a given stream is drawn as it comes (the
    streams of split_block are already sized).  The lattice is the
    randomized rank-1 lattice: generator uniform on {1,..,n-1}^d, shift
    uniform on the 1/n grid, uniform point permutation, iid jitter on
    [0,1/n)^d; its ablations drop the shift (shift "none"), draw it uniform
    on [0,1)^d ("continuous_torus"), pin points to cell corners (jitter
    off) or fix the generator.  The point set is the one-stream block of
    _draw_block.
    """
    if isinstance(seed, RngStream):
        rng = seed
    else:
        rng = RngStream(seed)
        rng.reserve(_draw_words(spec))
    return PointSet(_draw_block(spec, [rng]), spec, rng.seed)


def _draw_block(spec: SchemeSpec, streams) -> np.ndarray:
    """The numerators of generate(spec, s) for s in streams, stacked: shape (R * n, dim).

    Each lattice stream makes its scalar draws (_lattice_draws) and then
    reads its n * dim jitter words from its window, or past its end; the
    cell matrix, shift, jitter and wrap then run once for the whole block.
    A latin kind draws each stream's point set in turn (_latin).  The size
    is checked first; the range is checked once by each caller (PointSet,
    _replication_blocks).
    """
    n, dim = spec.n, spec.dim
    _check_size(n, dim)
    if spec.kind != "rsj_lattice":
        nums = np.concatenate([_latin(spec, rng) for rng in streams])
    else:
        draws, jits = [], []
        for rng in streams:
            draws.append(_lattice_draws(spec, rng))
            if spec.jitter:
                jits.append(rng.u64_array(n * dim))
        g, s, frac, perm = (np.array(v, dtype=np.int64) for v in zip(*draws))
        reps = len(perm)
        cells = (perm[:, :, None] * g[:, None, :] + s[:, None, :]) % n
        nums = (cells << FRAC_BITS) + frac[:, None, :]
        if jits:
            # each stream's 53-bit jitters (bits53_array), shifted and cast once for the block
            bits = np.concatenate(jits) >> np.uint64(64 - FRAC_BITS)
            nums += bits.astype(np.int64).reshape(reps, n, dim)
        nums %= n * _FRAC_ONE
        nums = nums.reshape(reps * n, dim)
    return nums


# Replications are split and mixed about this many words at a time: large
# enough to amortise the numpy calls, small enough that a block's mixed
# words (each stream's memoryview window) and float export stay well under
# a megabyte.
_BLOCK_WORDS = 1 << 14


def _stream_blocks(rng: RngStream, replications: int, words: int, width: int,
                   offset: int = 0):
    """Substreams rng.split(offset + k), k < replications, in order, as one
    RngStream.split_block iterator per block.

    A block holds about _BLOCK_WORDS words (words pre-mixed per stream) and
    about as many float cells (width exported per stream).  This keeps the
    blocking policy (how many substreams RngStream.split_block mixes at a
    time) out of its callers; it changes no draw.
    """
    per_block = max(1, _BLOCK_WORDS // max(words, width, 1))
    for first in range(0, replications, per_block):
        yield rng.split_block(offset + first, min(per_block, replications - first), words)


def _replication_blocks(spec: SchemeSpec, rng: RngStream, replications: int):
    """The numerators of generate(spec, rng.split(k)) for k < replications,
    stacked a block of _stream_blocks at a time by _draw_block, each block
    range-checked."""
    for block in _stream_blocks(rng, replications, _draw_words(spec), spec.n * spec.dim):
        nums = _draw_block(spec, block)
        _check_range(nums, spec.n)
        yield nums


# -- export / import --------------------------------------------------------


def point_set_to_csv(ps: PointSet) -> str:
    """CSV with metadata comment lines and one float row per point."""
    d = spec_to_dict(ps.spec)
    gen = d["generator"]
    gen_str = gen if isinstance(gen, str) else ",".join(str(v) for v in gen)
    buf = io.StringIO()
    buf.write(f"# scheme={d['kind']}, n={d['n']}, dim={d['dim']}, seed={ps.seed}\n")
    buf.write(f"# generator={gen_str}, shift={d['shift']}, jitter={d['jitter']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in ps.floats():
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def point_set_to_json(ps: PointSet) -> str:
    payload = {
        "spec": spec_to_dict(ps.spec),
        "seed": ps.seed,
        "frac_bits": FRAC_BITS,
        "nums": [[int(v) for v in row] for row in ps.nums],
        "points": [[float(v) for v in row] for row in ps.floats()],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _validate_structure(ps: PointSet) -> None:
    cells = ps.cells()
    if ps.spec.kind in ("lhs", "patterson"):
        for i in range(ps.dim):
            if sorted(cells[:, i].tolist()) != list(range(ps.n)):
                raise ValueError("latin property violated: a stratum is hit twice")
    if ps.spec.kind == "stratified1d":
        if sorted(cells[:, 0].tolist()) != list(range(ps.n)):
            raise ValueError("stratification violated: a stratum is hit twice")
    if (
        ps.spec.kind == "rsj_lattice"
        and not ps.spec.jitter
        and ps.spec.shift in ("grid", "none")
    ):
        if np.any(ps.offsets() != 0):
            raise ValueError("jitterless grid scheme has off-grid coordinates")


def point_set_from_json(text: str) -> PointSet:
    """The point set of point_set_to_json's text; every malformed payload raises ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not {"spec", "nums", "seed"} <= payload.keys():
        raise ValueError("point set must be a JSON object with keys spec, nums and seed")
    if payload.get("frac_bits") != FRAC_BITS:
        raise ValueError("unsupported coordinate resolution")
    spec = spec_from_dict(payload["spec"])
    nums = np.array(payload["nums"])
    # JSON integers within int64 read as a signed integer dtype; floats, bools,
    # strings and integers past int64 do not (int64 would truncate or overflow)
    if nums.dtype.kind != "i":
        raise ValueError("nums must be rows of integer coordinate numerators below 2**63")
    ps = PointSet(nums, spec, _as_int(payload["seed"], "seed"))
    _validate_structure(ps)
    # points must be exactly the float view of nums: a file whose floats say otherwise is refused
    if payload.get("points") != ps.floats().tolist():
        raise ValueError("points must be the float export of nums")
    return ps


# one key=value of a header line: the value runs up to the next ", key=",
# so a fixed generator's commas stay in it
_HEADER_ITEM = re.compile(r"([^,=]+)=(.*?)(?=,[^,=]*=|$)")


def point_set_from_csv(text: str):
    """Parse the float CSV export; returns (metadata dict, float array).

    The CSV carries floats only, so this is a lossy view: ranges and shape
    are validated, exact invariants are not recoverable.
    """
    meta = {}
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            for k, v in _HEADER_ITEM.findall(line[1:]):
                meta[k.strip()] = v.strip()
            continue
        rows.append([float(v) for v in line.split(",")])
    pts = np.array(rows, dtype=np.float64)
    if pts.size and (pts.min() < 0 or pts.max() >= 1):
        raise ValueError("coordinates outside [0, 1)")
    if "n" in meta and pts.shape[0] != int(meta["n"]):
        raise ValueError("row count does not match n in header")
    if "dim" in meta and pts.shape[1] != int(meta["dim"]):
        raise ValueError("column count does not match dim in header")
    return meta, pts
