import json
import time

import numpy as np
import pytest

from negdep.samplers import generate
from negdep.schemes import (
    SchemeSpec,
    full_rsj,
    is_full_rsj,
    is_marginally_uniform,
    lhs_spec,
    patterson_spec,
    spec_from_dict,
    spec_to_dict,
    stratified_spec,
)


def test_kind_validation():
    with pytest.raises(ValueError):
        SchemeSpec("sobol", 8, 2)
    with pytest.raises(ValueError):
        SchemeSpec("stratified1d", 4, 2)
    with pytest.raises(ValueError):
        SchemeSpec("lhs", 0, 2)


def test_rsj_requires_prime_n():
    with pytest.raises(ValueError, match="prime"):
        SchemeSpec("rsj_lattice", 6, 2)
    SchemeSpec("rsj_lattice", 2, 3)  # 2 is prime


def test_huge_prime_n_is_decided_at_once():
    t0 = time.perf_counter()
    assert SchemeSpec("rsj_lattice", 10**18 + 3, 2).n == 10**18 + 3
    with pytest.raises(ValueError, match="prime"):
        SchemeSpec("rsj_lattice", 10**18 + 1, 2)
    assert time.perf_counter() - t0 < 0.01


def test_degenerate_generator_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        SchemeSpec("rsj_lattice", 5, 2, generator=(0, 1))
    with pytest.raises(ValueError, match="degenerate"):
        SchemeSpec("rsj_lattice", 5, 2, generator=(1, 5))
    with pytest.raises(ValueError):
        SchemeSpec("rsj_lattice", 5, 2, generator=(1, 2, 3))


def test_unused_flags_normalized_to_defaults():
    a = SchemeSpec("lhs", 5, 2, generator=(1, 2), shift="none", jitter=False)
    b = lhs_spec(5, 2)
    assert a == b
    assert a.generator == "random" and a.shift == "grid" and a.jitter is True


def test_is_full_rsj():
    assert is_full_rsj(full_rsj(5, 2))
    assert not is_full_rsj(SchemeSpec("rsj_lattice", 5, 2, jitter=False))
    assert not is_full_rsj(SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1)))
    assert not is_full_rsj(lhs_spec(5, 2))


def test_marginal_uniformity_predicate():
    assert is_marginally_uniform(stratified_spec(4))
    assert is_marginally_uniform(lhs_spec(5, 3))
    assert is_marginally_uniform(full_rsj(5, 2))
    assert is_marginally_uniform(
        SchemeSpec("rsj_lattice", 5, 2, shift="continuous_torus", jitter=False)
    )
    assert not is_marginally_uniform(patterson_spec(5, 2))
    assert not is_marginally_uniform(SchemeSpec("rsj_lattice", 5, 2, shift="none"))
    assert not is_marginally_uniform(SchemeSpec("rsj_lattice", 5, 2, jitter=False))


def test_spec_dict_round_trip():
    for spec in (
        full_rsj(7, 3),
        lhs_spec(4, 2),
        patterson_spec(6, 2),
        stratified_spec(9),
        SchemeSpec("rsj_lattice", 5, 2, generator=(2, 3), shift="none", jitter=False),
    ):
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_numpy_integer_sizes_are_stored_as_int():
    spec = SchemeSpec("rsj_lattice", np.int64(5), np.int32(2), generator=(np.int64(1), 2))
    assert type(spec.n) is int and type(spec.dim) is int
    assert all(type(v) is int for v in spec.generator)
    assert spec == SchemeSpec("rsj_lattice", 5, 2, generator=(1, 2))
    assert generate(SchemeSpec("rsj_lattice", np.int64(5), 2), 1) == generate(full_rsj(5, 2), 1)
    lhs = SchemeSpec("lhs", np.int64(5), np.int64(2))
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(lhs)))) == lhs_spec(5, 2)
    # an array generator is converted before it is compared with "random"
    arr = SchemeSpec("rsj_lattice", 5, 2, generator=np.array([1, 2]))
    assert arr == spec and all(type(v) is int for v in arr.generator)


def test_non_integer_sizes_and_generators_are_refused():
    with pytest.raises(TypeError):
        SchemeSpec("lhs", 5.0, 2)
    with pytest.raises(TypeError):
        SchemeSpec("lhs", 5, 2.0)
    with pytest.raises(TypeError):
        SchemeSpec("rsj_lattice", 5, 2, generator=(1.5, 2.9))
    with pytest.raises(TypeError):
        SchemeSpec("rsj_lattice", 5, 2, generator=(1, 2.0))


@pytest.mark.parametrize("kind,n,dim,generator", [
    ("lhs", True, 2, "random"),
    ("lhs", 5, True, "random"),
    ("rsj_lattice", 5, True, (1,)),
    ("rsj_lattice", 5, 2, (True, 2)),
    ("rsj_lattice", 5, 2, (1, False)),
    ("rsj_lattice", 5, 2, (np.True_, 2)),
], ids=["n", "dim", "rsj-dim", "generator", "generator-false", "numpy-bool"])
def test_bool_sizes_and_generators_are_refused(kind, n, dim, generator):
    # a bool is not stored as the integer 1 or 0, as spec_from_dict refuses it too
    with pytest.raises(TypeError):
        SchemeSpec(kind, n, dim, generator=generator)


def test_spec_from_dict_accepts_json_integers():
    d = {"kind": "rsj_lattice", "n": 5, "dim": 2, "generator": [1, 3],
         "shift": "none", "jitter": "off"}
    assert spec_from_dict(d) == SchemeSpec("rsj_lattice", 5, 2, generator=(1, 3),
                                           shift="none", jitter=False)
    d = {"kind": "rsj_lattice", "n": np.int64(5), "dim": np.int32(2),
         "generator": [np.int64(1), 3], "shift": "none", "jitter": False}
    assert spec_from_dict(d) == SchemeSpec("rsj_lattice", 5, 2, generator=(1, 3),
                                           shift="none", jitter=False)


@pytest.mark.parametrize("d,key", [
    ({"kind": "rsj_lattice", "n": 5.7, "dim": 2}, "n"),
    ({"kind": "lhs", "n": "5", "dim": 2}, "n"),
    ({"kind": "lhs", "n": 5, "dim": True}, "dim"),
    ({"kind": "lhs", "n": 5, "dim": 2.0}, "dim"),
    ({"kind": "rsj_lattice", "n": 5, "dim": 2, "generator": [1.5, 2.9]}, "generator"),
    ({"kind": "rsj_lattice", "n": 5, "dim": 2, "generator": "1,2"}, "generator"),
    ({"kind": "rsj_lattice", "n": 5, "dim": 2, "jitter": "yes"}, "jitter"),
    ({"kind": "rsj_lattice", "n": 5, "dim": 2, "jitter": 1}, "jitter"),
    ({"n": 5, "dim": 2}, "kind"),
    ({"kind": "lhs", "dim": 2}, "n"),
    ({"kind": "lhs", "n": 5}, "dim"),
])
def test_spec_from_dict_refuses_what_it_would_truncate(d, key):
    # a ValueError naming the key: the CLI maps it to exit 2
    with pytest.raises(ValueError, match=rf"^{key} must|key '{key}'"):
        spec_from_dict(d)

