import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndflab import (
    BernsteinTriplet,
    EuclideanPower,
    FromTriplet,
    LevyTriplet,
    Log1p,
    Power,
    SpecError,
    Subordinated,
    eval_bernstein,
    eval_psi,
    eval_psi_many,
    kernel_kpsi,
    metric_dpsi,
)
from ndflab.core import BERNSTEIN, NDF, DimensionMismatch
from ndflab.distributions import DISTRIBUTION
from ndflab.fields import POINTS, ConfigError, canonical_dumps, decode, encode
from randgen import random_bernstein, random_ndf_spec, random_triplet_spec


def test_eval_bernstein_examples():
    assert eval_bernstein(Power(1.0), 3.5) == 3.5
    assert eval_bernstein(Log1p(), 0.0) == 0.0
    f = BernsteinTriplet(a=0.0, b=0.0, atoms=((1.0, 1.0),))
    assert eval_bernstein(f, 1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-15)


def test_eval_bernstein_rejects_negative_argument():
    with pytest.raises(ValueError):
        eval_bernstein(Log1p(), -0.1)


def test_bernstein_triplet_value_at_zero_is_a():
    f = BernsteinTriplet(a=0.25, b=1.0, atoms=((2.0, 0.5),))
    assert eval_bernstein(f, 0.0) == 0.25


def test_bernstein_validation():
    with pytest.raises(SpecError):
        BernsteinTriplet(a=-1.0)
    with pytest.raises(SpecError):
        BernsteinTriplet(atoms=((0.0, 1.0),))
    with pytest.raises(SpecError):
        Power(0.0)
    with pytest.raises(SpecError):
        Power(1.5)


def test_eval_psi_examples():
    quad = FromTriplet(LevyTriplet(q=2.0 * np.eye(2)))
    assert eval_psi(quad, [3.0, 4.0]) == pytest.approx(25.0, abs=1e-12)

    one_atom = FromTriplet(LevyTriplet(q=np.zeros((1, 1)), atoms=(([1.0], 1.0),)))
    assert eval_psi(one_atom, np.pi) == pytest.approx(2.0, abs=1e-12)

    assert eval_psi(EuclideanPower(1.0, 2), [3.0, 4.0]) == pytest.approx(5.0)

    quad_1 = Subordinated(Power(0.5), quad)
    assert eval_psi(quad_1, [3.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


def test_eval_psi_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_psi(EuclideanPower(1.0, 2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("a", [0, 0.0])
def test_from_triplet_decodes_a_zero_constant_term(a):
    psi = decode(NDF, {"type": "from_triplet", "q": [[1.0]], "a": a})
    assert encode(NDF, psi) == {"type": "from_triplet", "dim": 1, "a": 0.0, "q": [[1.0]], "atoms": []}


def test_subordinate_examples():
    quad = FromTriplet(LevyTriplet(q=2.0 * np.eye(1)))
    psi = Subordinated(Power(1.0), quad)
    assert eval_psi(psi, 3.0) == eval_psi(quad, 3.0)
    root = Subordinated(Power(0.5), quad)
    assert eval_psi(root, -4.0) == pytest.approx(4.0)
    assert eval_psi(Subordinated(Log1p(), EuclideanPower(2.0, 1)), 0.0) == 0.0


def test_subordinate_rejects_nonzero_f_at_zero():
    with pytest.raises(SpecError):
        Subordinated(BernsteinTriplet(a=1.0), EuclideanPower(1.0, 1))


def test_metric_examples():
    psi = EuclideanPower(2.0, 2)
    assert metric_dpsi(psi, [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_dpsi(psi, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)
    assert metric_dpsi(EuclideanPower(1.0, 1), 4.0, 0.0) == pytest.approx(2.0)


def test_kernel_examples():
    psi = EuclideanPower(1.5, 1)
    assert kernel_kpsi(psi, 3.0, 0.0) == 0.0
    assert kernel_kpsi(psi, 1.0, 1.0) == pytest.approx(2.0**1.5)
    assert kernel_kpsi(EuclideanPower(1.0, 1), 1.0, -1.0) == pytest.approx(-2.0)


def test_evenness_and_zero_battery():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        pts = rng.normal(scale=3.0, size=(100, dim))
        np.testing.assert_array_equal(eval_psi_many(psi, pts), eval_psi_many(psi, -pts))
        assert abs(eval_psi(psi, np.zeros(dim))) <= 1e-14
        assert np.all(eval_psi_many(psi, pts) >= 0.0)


def test_metric_axioms_battery():
    rng = np.random.default_rng(12)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        for _ in range(100):
            xi, eta, zeta = rng.normal(scale=2.0, size=(3, dim))
            assert metric_dpsi(psi, xi, eta) == pytest.approx(metric_dpsi(psi, eta, xi), abs=1e-14)
            assert metric_dpsi(psi, xi, zeta) <= (
                metric_dpsi(psi, xi, eta) + metric_dpsi(psi, eta, zeta) + 1e-10
            )


def test_sqrt_psi_subadditive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        xi, eta = rng.normal(scale=2.0, size=(2, dim))
        lhs = np.sqrt(eval_psi(psi, xi + eta))
        rhs = np.sqrt(eval_psi(psi, xi)) + np.sqrt(eval_psi(psi, eta))
        assert lhs <= rhs + 1e-10


@given(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
       st.integers(0, 2**32 - 1))
def test_bernstein_monotone_concave(lams, seed):
    l1, l2, l3 = sorted(lams)
    f = random_bernstein(np.random.default_rng(seed))
    v1, v2, v3 = (eval_bernstein(f, l) for l in (l1, l2, l3))
    assert v1 <= v2 + 1e-12
    # midpoint concavity
    mid = eval_bernstein(f, 0.5 * (l1 + l3))
    assert mid >= 0.5 * (v1 + v3) - 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_subordination_matches_euclidean_power(alpha):
    rng = np.random.default_rng(int(alpha * 100))
    for dim in (1, 2, 3):
        quad = FromTriplet(LevyTriplet(q=2.0 * np.eye(dim)))
        via_sub = Subordinated(Power(alpha / 2.0), quad)
        direct = EuclideanPower(alpha, dim)
        pts = rng.normal(scale=3.0, size=(200, dim))
        np.testing.assert_allclose(
            eval_psi_many(via_sub, pts), eval_psi_many(direct, pts), rtol=1e-12
        )


def test_json_round_trip_byte_identical():
    rng = np.random.default_rng(14)
    for _ in range(50):
        psi = random_ndf_spec(rng, int(rng.integers(1, 4)))
        s = canonical_dumps(encode(NDF, psi))
        assert canonical_dumps(encode(NDF, decode(NDF, json.loads(s)))) == s
    for _ in range(50):
        f = random_bernstein(rng)
        s = canonical_dumps(encode(BERNSTEIN, f))
        assert canonical_dumps(encode(BERNSTEIN, decode(BERNSTEIN, json.loads(s)))) == s


def test_decoded_spec_evaluates_identically():
    rng = np.random.default_rng(15)
    psi = random_ndf_spec(rng, 2)
    clone = decode(NDF, json.loads(canonical_dumps(encode(NDF, psi))))
    pts = rng.normal(size=(50, 2))
    np.testing.assert_array_equal(eval_psi_many(psi, pts), eval_psi_many(clone, pts))


BEYOND_FLOAT64 = 10**400
LAW = {"weights": [0.5, 0.5]}


@pytest.mark.parametrize("kind,value,message", [
    (DISTRIBUTION, {**LAW, "atoms": [[0.0], []]}, "atoms/1: expected at least 1 items, got 0"),
    (DISTRIBUTION, {**LAW, "atoms": [[0.0], [True]]}, "atoms/1/0: expected number, got boolean"),
    (DISTRIBUTION, {**LAW, "atoms": [[0.0], [-BEYOND_FLOAT64]]},
     "atoms/1/0: expected a finite number, got an integer beyond float64"),
    (POINTS, [[1.0], []], "1: expected at least 1 items, got 0"),
    (POINTS, [[1.0], [False]], "1/0: expected number, got boolean"),
    (POINTS, [[1.0], [BEYOND_FLOAT64]], "1/0: expected a finite number, got an integer beyond float64"),
    (POINTS, [[1.0], "1.0"], "1: expected number or array, got string"),
    (NDF, {"type": "from_triplet", "q": [[1.0, 0.0], 0.0]}, "q/1: expected array, got integer"),
    (NDF, {"type": "from_triplet", "q": [[1.0, 0.0], []]}, "q/1: expected at least 1 items, got 0"),
    (NDF, {"type": "from_triplet", "q": [[True]]}, "q/0/0: expected number, got boolean"),
    (NDF, {"type": "from_triplet", "q": [[float("nan")]]}, "q/0/0: expected a finite number, got nan"),
    (NDF, {"type": "from_triplet", "q": [[1.0]], "atoms": [{"u": 1.0, "m": 1.0}]},
     "atoms/0/u: expected array, got integer"),
])
def test_lists_of_vectors_that_misfit_keep_their_path_and_message(kind, value, message):
    # a list of finite vectors is checked in one pass; any misfit takes the
    # item by item path, which names the field at fault
    with pytest.raises(ConfigError) as caught:
        decode(kind, value)
    assert str(caught.value) == f"config field {message}"


@pytest.mark.parametrize("kind,value", [
    (DISTRIBUTION, {**LAW, "atoms": [[0.0, 1.0], [2.0]]}),
    (NDF, {"type": "from_triplet", "q": [[1.0, 0.0], [0.0]]}),
])
def test_a_ragged_list_of_vectors_is_its_constructors_error(kind, value):
    with pytest.raises(ConfigError) as caught:
        decode(kind, value)
    assert isinstance(caught.value.__cause__, ValueError)
    assert str(caught.value) == f"config field <root>: {caught.value.__cause__}"


def test_lists_of_finite_vectors_decode_as_they_are():
    points = [[1, -2.5], [0.0, 1e308], [-0.0, 3]]
    assert decode(POINTS, points) is points
    assert decode(POINTS, [[1.0], 2.0]) == [[1.0], 2.0]  # a number for a 1-d point takes the item path
    psi = decode(NDF, {"type": "from_triplet", "q": [[2, 1], [1, 2]], "atoms": [{"u": [1, 0], "m": 1}]})
    assert psi.triplet.q.tolist() == [[2.0, 1.0], [1.0, 2.0]]


def _quadratic_case(dim, spec_seed, zero_q, n):
    """An atom-free triplet with Q from ``random_triplet_spec`` and n points."""
    rng = np.random.default_rng(spec_seed)
    q = random_triplet_spec(rng, dim).triplet.q
    if zero_q:
        q = np.zeros_like(q)
    pts = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    return FromTriplet(LevyTriplet(q=q)), pts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), spec_seed=st.integers(0, 2**32 - 1), zero_q=st.booleans(),
       n=st.integers(3, 40))
def test_quadratic_form_matches_the_einsum_bit_for_bit(dim, spec_seed, zero_q, n):
    psi, pts = _quadratic_case(dim, spec_seed, zero_q, n)
    q = psi.triplet.q
    np.testing.assert_array_equal(psi.eval_many(pts), 0.5 * np.einsum("ij,nj,ni->n", q, pts, pts))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), spec_seed=st.integers(0, 2**32 - 1), zero_q=st.booleans(),
       n=st.integers(1, 8))
def test_quadratic_form_of_a_point_does_not_depend_on_its_batch(dim, spec_seed, zero_q, n):
    psi, pts = _quadratic_case(dim, spec_seed, zero_q, n)
    batch = psi.eval_many(pts)
    for k in range(n):
        for a, b in ((k, k + 1), (0, k + 1), (k, n)):
            assert psi.eval_many(pts[a:b])[k - a] == batch[k]


def _full_loop_quadratic(q, pts):
    """0.5 <Q p, p> with every (i, j) entry added, zero or not, in row-major order."""
    quad = np.zeros(pts.shape[0])
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            quad += q[i, j] * pts[:, j] * pts[:, i]
    return 0.5 * quad


def _partly_zero_q_case(dim, spec_seed, n):
    """An atom-free triplet whose Q has zero rows and columns, and n points with -0.0 and 0.0 coordinates."""
    rng = np.random.default_rng(spec_seed)
    a = rng.normal(size=(dim, dim))
    q = a @ a.T
    dropped = rng.random(dim) < 0.5  # zero rows and columns keep Q positive semidefinite
    q[dropped], q[:, dropped] = 0.0, 0.0
    pts = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    pts[rng.random((n, dim)) < 0.3] = -0.0
    pts[rng.random((n, dim)) < 0.1] = 0.0
    return FromTriplet(LevyTriplet(q=q)), pts


def _bits(v):
    return np.asarray(v).view(np.int64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), spec_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       sign=st.sampled_from([1.0, -1.0]))
def test_skipping_zero_q_entries_keeps_every_bit(dim, spec_seed, n, sign):
    # a zero entry adds +-0 to a sum that starts at +0; -0.0 coordinates make
    # some of those terms -0, and a partly zero Q leaves zero and nonzero entries
    psi, pts = _partly_zero_q_case(dim, spec_seed, n)
    assert np.array_equal(_bits(psi.eval_many(pts)), _bits(_full_loop_quadratic(psi.triplet.q, pts)))
    pairs = (pts[:, None] + sign * pts[None]).reshape(-1, dim)
    tile = psi.pair_values(pts)(0, n, sign)
    assert np.array_equal(_bits(tile.ravel()), _bits(_full_loop_quadratic(psi.triplet.q, pairs)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), spec_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       sign=st.sampled_from([1.0, -1.0]), data=st.data())
def test_quadratic_pair_tiles_are_eval_many_on_the_pair_points(dim, spec_seed, n, sign, data):
    # a tile forms each coordinate's pair difference once and multiplies
    # (q_ij d_j) d_i as eval_many does on the pair point, so a Q-only triplet's
    # tiles, whole or partial, keep its bits, -0.0 terms included
    psi, pts = _partly_zero_q_case(dim, spec_seed, n)
    pairs = (pts[:, None] + sign * pts[None]).reshape(-1, dim)
    whole = psi.eval_many(pairs).reshape(n, n)
    tile = psi.pair_values(pts)
    assert np.array_equal(_bits(tile(0, n, sign)), _bits(whole))
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a + 1, n))
    assert np.array_equal(_bits(tile(a, b, sign)), _bits(whole[a:b, a:]))


@pytest.mark.parametrize("module", ["core", "distributions", "kernels", "mc", "bbm"])
def test_every_public_name_resolves(module):
    # the benchmark's tracer maps layers from __all__ and skips a missing name without a word
    mod = importlib.import_module(f"ndflab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from ndflab.{module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


# names in the benchmark tracer's layer table whose functions are gone from
# ndflab; the tracer skips them without a word, so this list may only shrink
STALE_LAYER_NAMES = {
    "cli._validate",
    "core.bernstein_from_json", "core.bernstein_from_obj", "core.eval_bernstein_many",
    "core.ndf_from_json", "core.ndf_from_obj",
    "distributions.distribution_from_obj", "distributions.exact_signed_sum_gap",
    "mc.mc_pair_estimates", "mc.mc_signed_sum",
}


def test_tracer_layer_names_resolve():
    # the table is read with ast, not imported, so nothing is written under bench/
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets if isinstance(target, ast.Name)] == ["LAYERS"])
    unresolved = {f"{module}.{name}" for module, names in ast.literal_eval(table).items() for name in names
                  if not hasattr(importlib.import_module(f"ndflab.{module}"), name)}
    assert unresolved == STALE_LAYER_NAMES
