"""Seeded job lists for the three benchmark workloads.

Every config is plain JSON built from ``random.Random(seed)``; nothing here
imports ndflab, so the program under test receives only the config files the
harness writes.  The same seed always gives the same files.

A job is a dict with ``id``, ``command``, ``config`` and ``expect`` (the
``[rows, columns]`` its CSV must have).  The job count and the size of every
job are fixed per workload; the seed only chooses values, so the amount of
work a run does varies little from seed to seed.

Each workload ends with a short probe tail of tiny jobs that touch the layers
it otherwise skips, so every per-layer metric is measured in every traced
run.  The tail costs well under 2% of a workload's wall time.
"""

from __future__ import annotations

import math
import random

VERIFY_COLS = 9  # psi_id, law_id, e_minus, e_plus, gap, method, n_samples, stderr, seed
SIGNED_COLS = 6
VARIANCE_COLS = 4
TAIL_COLS = 3
SINGLE_CE_COLS = 6
SEARCH_CE_COLS = 3

# battery: how many jobs of each kind; the total is fixed so that run
# length does not depend on the seed.
BATTERY_MIX = (
    ("verify-inequality", 180),
    ("variance-identity", 120),
    ("check-kernel", 120),
    ("signed-sum", 60),
    ("tail-identity", 60),
    ("counterexample", 60),
)
BATTERY_MAX_ATOMS = 12
BATTERY_SCALES = (1e-2, 1e4)  # law scales are log-uniform over this range
BATTERY_CENTRED = 1.0 / 3.0

LARGE_LATTICE_SIDE = 40  # verify law: atoms on a 40 x 40 lattice
LARGE_VERIFY_DISTINCT = 900
LARGE_VERIFY_DUPLICATES = 300  # atoms that coincide with one already drawn
LARGE_VARIANCE_ATOMS = 800
LARGE_KERNEL_POINTS = 600
LARGE_SIGNED_PATTERN = (1, 1, 1, 1, -1, -1, -1, -1)
LARGE_SIGNED_ATOMS = 7

SAMPLING_GAUSS_N = 4_000_000
SAMPLING_SIGNED_N = 1_000_000
SAMPLING_SIGNED_VARS = 8
SAMPLING_CE_N = 2_000_000
SAMPLING_BBM_GRID = 800
SAMPLING_BBM_PATHS = 1000


# ---------------------------------------------------------------------------
# random spec trees and laws (JSON objects, same shapes as the CLI schemas)
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _nonzero_vec(rng, dim):
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        if any(c != 0.0 for c in u):
            return u


def _psd_matrix(rng, dim, scale):
    """scale * A A^T, exactly symmetric because both triangles sum alike."""
    a = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(dim)]
    return [
        [scale * sum(a[i][t] * a[j][t] for t in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]


def _bernstein(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return {"type": "power", "beta": rng.uniform(0.05, 1.0)}
    if kind == 1:
        return {"type": "log1p"}
    atoms = [[rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0)] for _ in range(rng.randint(1, 3))]
    return {"type": "triplet", "a": 0.0, "b": rng.uniform(0.0, 1.0), "atoms": atoms}


def _triplet(rng, dim, n_atoms=None):
    if rng.random() < 0.3:
        q = [[0.0] * dim for _ in range(dim)]
    else:
        q = _psd_matrix(rng, dim, rng.uniform(0.1, 1.0))
    if n_atoms is None:
        n_atoms = rng.randrange(4)
    atoms = [{"u": _nonzero_vec(rng, dim), "m": rng.uniform(0.1, 2.0)} for _ in range(n_atoms)]
    if not atoms and not any(any(row) for row in q):
        q = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return {"type": "from_triplet", "dim": dim, "a": 0.0, "q": q, "atoms": atoms}


def random_spec(rng, dim, depth=3):
    """Random cnd spec tree, the JSON twin of the test suite's generator."""
    kinds = ("triplet", "power", "subordinated", "conic") if depth > 0 else ("triplet", "power")
    kind = kinds[rng.randrange(len(kinds))]
    if kind == "triplet":
        return _triplet(rng, dim)
    if kind == "power":
        return {"type": "euclidean_power", "alpha": rng.uniform(0.1, 2.0), "dim": dim}
    if kind == "subordinated":
        return {"type": "subordinated", "f": _bernstein(rng), "inner": random_spec(rng, dim, depth - 1)}
    terms = [[rng.uniform(0.0, 2.0), random_spec(rng, dim, depth - 1)] for _ in range(rng.randint(1, 3))]
    return {"type": "conic_sum", "dim": dim, "terms": terms}


def fixed_shape_spec(rng, dim):
    """A spec whose evaluation cost does not depend on the seed.

    ``c1 ||x||^alpha + c2 (psi_triplet(x))^beta`` with a two-atom triplet;
    only the parameter values are random.
    """
    inner = _triplet(rng, dim, n_atoms=2)
    return {
        "type": "conic_sum",
        "dim": dim,
        "terms": [
            [rng.uniform(0.5, 2.0), {"type": "euclidean_power", "alpha": rng.uniform(0.3, 2.0), "dim": dim}],
            [rng.uniform(0.5, 2.0), {"type": "subordinated", "f": {"type": "power", "beta": rng.uniform(0.2, 1.0)}, "inner": inner}],
        ],
    }


def _weights(rng, k):
    w = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(w)
    return [x / total for x in w]


def _centre(atoms, weights):
    dim = len(atoms[0])
    mean = [sum(w * x[d] for x, w in zip(atoms, weights)) for d in range(dim)]
    return [[x[d] - mean[d] for d in range(dim)] for x in atoms]


def random_law(rng, dim, k):
    """k Gaussian atoms at a log-uniform scale; a third of the laws are centred."""
    scale = _log_uniform(rng, *BATTERY_SCALES)
    atoms = [[rng.gauss(0.0, scale) for _ in range(dim)] for _ in range(k)]
    weights = _weights(rng, k)
    if rng.random() < BATTERY_CENTRED:
        atoms = _centre(atoms, weights)
    return {"atoms": atoms, "weights": weights}


def _seed(rng):
    return rng.getrandbits(63)


def _job(command, config, rows, cols):
    return {"command": command, "config": config, "expect": [rows, cols]}


# ---------------------------------------------------------------------------
# probe tail: one tiny job per layer a workload otherwise skips
# ---------------------------------------------------------------------------


def _probe_mc(rng):
    return [
        _job("verify-inequality", {
            "psi": random_spec(rng, 2, depth=1),
            "sampler": {"type": "gaussian_iso", "dim": 2, "sigma": rng.uniform(0.5, 2.0), "mean": [0.0, 0.0]},
            "n_samples": 20_000, "seed": _seed(rng),
        }, 2, VERIFY_COLS),
        _job("signed-sum", {
            "psi": random_spec(rng, 1, depth=1), "pattern": [1, -1, 1, -1],
            "sampler": {"type": "uniform_box", "lower": [-1.0], "upper": [rng.uniform(0.5, 2.0)]},
            "n_samples": 5_000, "seed": _seed(rng),
        }, 2, SIGNED_COLS),
    ]


def _probe_bbm(rng):
    grid = [(i + 1) / 32 for i in range(32)]
    return [_job("simulate-bbm", {"h": 0.5, "k": rng.uniform(0.5, 1.5), "grid": grid,
                                  "n_paths": 8, "seed": _seed(rng)}, 9, 32)]


def _probe_exact(rng):
    law = {"atoms": [[rng.gauss(0.0, 1.0)] for _ in range(3)], "weights": _weights(rng, 3)}
    points = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(8)]
    return [
        _job("counterexample", {"alpha": 3.0, "c": 1.0, "m": rng.uniform(2.0, 20.0)}, 2, SINGLE_CE_COLS),
        _job("check-kernel", {"psi": random_spec(rng, 2, depth=1), "points": points}, 9, 8),
        _job("signed-sum", {"psi": random_spec(rng, 1, depth=1), "pattern": [1, -1],
                            "distribution": law}, 2, SIGNED_COLS),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _battery_job(rng, command):
    if command == "counterexample":
        alpha = rng.uniform(2.1, 6.0)
        c = rng.uniform(0.1, 4.0)
        if rng.random() < 0.25:
            lo = max(c, 1.0)
            grid = [lo * (1.0 + 0.5 * i) for i in range(20)]
            return _job(command, {"alpha": alpha, "c": c, "m_grid": grid}, 2, SEARCH_CE_COLS)
        return _job(command, {"alpha": alpha, "c": c, "m": rng.uniform(max(c, 1.0), 50.0)}, 2, SINGLE_CE_COLS)
    if command == "tail-identity":
        return _job(command, {"distribution": random_law(rng, 1, rng.randint(1, BATTERY_MAX_ATOMS))}, 2, TAIL_COLS)
    dim = rng.randint(1, 3)
    psi = random_spec(rng, dim)
    if command == "signed-sum":
        half = rng.randint(1, 2)
        pattern = [1] * half + [-1] * half
        rng.shuffle(pattern)
        law = random_law(rng, dim, rng.randint(1, BATTERY_MAX_ATOMS))
        return _job(command, {"psi": psi, "pattern": pattern, "distribution": law}, 2, SIGNED_COLS)
    k = rng.randint(1, BATTERY_MAX_ATOMS)
    law = random_law(rng, dim, k)
    if command == "check-kernel":
        return _job(command, {"psi": psi, "points": law["atoms"]}, k + 1, k)
    if command == "variance-identity":
        return _job(command, {"psi": psi, "distribution": law}, 2, VARIANCE_COLS)
    return _job(command, {"psi": psi, "distribution": law}, 2, VERIFY_COLS)


def battery(rng):
    jobs = [_battery_job(rng, command) for command, count in BATTERY_MIX for _ in range(count)]
    rng.shuffle(jobs)
    return jobs + _probe_mc(rng) + _probe_bbm(rng)


def _lattice_law(rng):
    side = LARGE_LATTICE_SIDE
    step = _log_uniform(rng, 0.1, 10.0)
    sites = rng.sample(range(side * side), LARGE_VERIFY_DISTINCT)
    picks = sites + [rng.choice(sites) for _ in range(LARGE_VERIFY_DUPLICATES)]
    rng.shuffle(picks)
    atoms = [[(s // side - side // 2) * step, (s % side - side // 2) * step] for s in picks]
    return {"atoms": atoms, "weights": _weights(rng, len(atoms))}


def _gauss_points(rng, n, dim, scale):
    return [[rng.gauss(0.0, scale) for _ in range(dim)] for _ in range(n)]


def large_law(rng):
    psi2 = fixed_shape_spec(rng, 2)
    psi1 = fixed_shape_spec(rng, 1)
    var_scale = _log_uniform(rng, 0.1, 10.0)
    small_step = _log_uniform(rng, 0.1, 10.0)
    small = {
        "atoms": [[(i - LARGE_SIGNED_ATOMS // 2) * small_step] for i in range(LARGE_SIGNED_ATOMS)],
        "weights": _weights(rng, LARGE_SIGNED_ATOMS),
    }
    jobs = [
        _job("verify-inequality", {"psi": psi2, "distribution": _lattice_law(rng)}, 2, VERIFY_COLS),
        _job("variance-identity", {"psi": psi2, "distribution": {
            "atoms": _gauss_points(rng, LARGE_VARIANCE_ATOMS, 2, var_scale),
            "weights": _weights(rng, LARGE_VARIANCE_ATOMS)}}, 2, VARIANCE_COLS),
        _job("check-kernel", {"psi": psi2, "points": _gauss_points(rng, LARGE_KERNEL_POINTS, 2, var_scale)},
             LARGE_KERNEL_POINTS + 1, LARGE_KERNEL_POINTS),
        _job("signed-sum", {"psi": psi1, "pattern": list(LARGE_SIGNED_PATTERN), "distribution": small},
             2, SIGNED_COLS),
    ]
    return jobs + _probe_mc(rng) + _probe_bbm(rng)


def sampling(rng):
    psi2 = fixed_shape_spec(rng, 2)
    psi1 = fixed_shape_spec(rng, 1)
    pattern = [1] * (SAMPLING_SIGNED_VARS // 2) + [-1] * (SAMPLING_SIGNED_VARS // 2)
    rng.shuffle(pattern)
    lower = [rng.uniform(-2.0, 0.0) for _ in range(2)]
    upper = [lo + rng.uniform(0.5, 3.0) for lo in lower]
    c = rng.uniform(0.5, 3.0)
    h = rng.uniform(0.3, 0.8)
    k = rng.uniform(0.5, min(1.5, 1.0 / h))
    horizon = _log_uniform(rng, 0.5, 5.0)
    grid = [horizon * (i + 1) / SAMPLING_BBM_GRID for i in range(SAMPLING_BBM_GRID)]
    jobs = [
        _job("verify-inequality", {
            "psi": psi2,
            "sampler": {"type": "gaussian_iso", "dim": 2, "sigma": _log_uniform(rng, 0.1, 10.0),
                        "mean": [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]},
            "n_samples": SAMPLING_GAUSS_N, "seed": _seed(rng)}, 2, VERIFY_COLS),
        _job("signed-sum", {
            "psi": psi2, "pattern": pattern,
            "sampler": {"type": "uniform_box", "lower": lower, "upper": upper},
            "n_samples": SAMPLING_SIGNED_N, "seed": _seed(rng)}, 2, SIGNED_COLS),
        _job("verify-inequality", {
            "psi": psi1,
            "sampler": {"type": "counterexample", "alpha": rng.uniform(2.5, 5.0), "c": c,
                        "m": rng.uniform(max(c, 1.0) + 1.0, 30.0)},
            "n_samples": SAMPLING_CE_N, "seed": _seed(rng)}, 2, VERIFY_COLS),
        _job("simulate-bbm", {"h": h, "k": k, "grid": grid, "n_paths": SAMPLING_BBM_PATHS,
                              "seed": _seed(rng)}, SAMPLING_BBM_PATHS + 1, SAMPLING_BBM_GRID),
    ]
    return jobs + _probe_exact(rng)


WORKLOADS = {"battery": battery, "large-law": large_law, "sampling": sampling}

SIZES = {
    "battery": (
        f"{sum(n for _, n in BATTERY_MIX)} small jobs ("
        + ", ".join(f"{c} {n}" for c, n in BATTERY_MIX)
        + f"); k 1-{BATTERY_MAX_ATOMS} atoms, dim 1-3, signed-sum m <= 2; law scales log-uniform "
        f"{BATTERY_SCALES[0]:g}-{BATTERY_SCALES[1]:g}, 1/3 centred"
    ),
    "large-law": (
        f"verify k={LARGE_VERIFY_DISTINCT + LARGE_VERIFY_DUPLICATES} 2-d lattice atoms "
        f"({LARGE_VERIFY_DUPLICATES} coincident); variance-identity k={LARGE_VARIANCE_ATOMS}; "
        f"check-kernel {LARGE_KERNEL_POINTS} points; exact signed-sum k={LARGE_SIGNED_ATOMS}, "
        f"pattern ++++----"
    ),
    "sampling": (
        f"MC verify gaussian_iso n={SAMPLING_GAUSS_N}; MC signed-sum uniform_box "
        f"{SAMPLING_SIGNED_VARS} signs n={SAMPLING_SIGNED_N}; MC verify counterexample sampler "
        f"n={SAMPLING_CE_N}; simulate-bbm grid {SAMPLING_BBM_GRID}, {SAMPLING_BBM_PATHS} paths"
    ),
}
_MC_BBM_PROBE = "probe tail: MC verify n=20000, MC signed-sum n=5000, simulate-bbm grid 32 x 8 paths"
PROBES = {
    "battery": _MC_BBM_PROBE,
    "large-law": _MC_BBM_PROBE,
    "sampling": "probe tail: counterexample, check-kernel 8 points, exact signed-sum k=3 m=1",
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for ``seed``; ids are stable positions."""
    jobs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for i, job in enumerate(jobs):
        job["id"] = f"j{i:04d}"
    return jobs
