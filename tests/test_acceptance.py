"""Acceptance suite: one test per criterion, one printed pass/fail line each."""

import json

import numpy as np
import pytest

from ndflab import (
    BbmParams,
    CounterexampleParams,
    DiscreteSampler,
    EuclideanPower,
    GaussianIso,
    Power,
    RawAbsPower,
    Subordinated,
    bbm_covariance,
    bbm_sample_paths,
    convolution_power,
    counterexample_distribution,
    counterexample_gap_closed_form,
    counterexample_search,
    empirical_covariance,
    exact_gap,
    gram_matrix,
    kernel_kpsi,
    mc_inequality_verdict,
    psd_check,
    tail_integral,
    variance_identity,
)
from ndflab.cli import main
from randgen import random_distribution, random_ndf_spec, random_sign_pattern


def _verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_counterexample_reproduction():
    params = CounterexampleParams(3.0, 1.0, 10.0)
    gap = counterexample_gap_closed_form(params)

    # independent oracle: literal 4-term enumeration over the two-point law
    atoms = [1.0, -10.0]
    weights = [0.9, 0.1]
    e_diff = 0.0
    e_sum = 0.0
    for x, px in zip(atoms, weights):
        for y, py in zip(atoms, weights):
            e_diff += px * py * abs(x - y) ** 3
            e_sum += px * py * abs(x + y) ** 3
    oracle = e_diff - e_sum

    ok = gap > 0 and abs(gap - oracle) <= 1e-9 * abs(oracle) and abs(gap - 21.88) < 1e-9
    _verdict(1, "counterexample reproduction", ok)


def test_criterion_2_sufficient_condition_search():
    rng = np.random.default_rng(0)
    grid = np.arange(1.0, 10001.0)
    ok = True
    for _ in range(20):
        alpha = float(rng.uniform(2.0, 4.0))
        threshold = 2.0 ** (2.0 - alpha) * alpha
        # c stays in the middle of the admissible range (0, threshold): near
        # either endpoint the smallest violating M grows without bound as
        # alpha -> 2, far beyond any fixed scan grid
        c = float(rng.uniform(0.35, 0.5) * threshold)
        found = counterexample_search(alpha, c, grid[grid >= max(c, 1.0)])
        ok = ok and found is not None
    _verdict(2, "sufficient condition for violation", ok)


def test_criterion_3_exact_theorem_battery():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        law = random_distribution(rng, dim)
        ok = ok and exact_gap(psi, law) >= -1e-10
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for _ in range(125):
            dim = int(rng.integers(1, 4))
            psi = Subordinated(Power(alpha / 2.0), random_ndf_spec(rng, dim, depth=2))
            law = random_distribution(rng, dim)
            ok = ok and exact_gap(psi, law) >= -1e-10
    for half in (1, 2, 3):
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            law = random_distribution(rng, dim, max_atoms=5)
            pattern = random_sign_pattern(rng, half)
            ok = ok and exact_gap(psi, convolution_power(law, len(pattern) // 2)) >= -1e-10
    _verdict(3, "exact inequality battery", ok)


def test_criterion_4_tail_identity():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        law = random_distribution(rng, 1)
        lhs, rhs = exact_gap(RawAbsPower(1.0), law), tail_integral(law)
        ok = ok and abs(lhs - rhs) <= 1e-12 and rhs >= -1e-14
    _verdict(4, "tail-integral identity", ok)


def test_criterion_5_gram_psd():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        pts = rng.normal(scale=2.0, size=(int(rng.integers(2, 51)), dim))
        ok = ok and psd_check(gram_matrix(psi, pts)).psd
    probe = psd_check(gram_matrix(RawAbsPower(3.0), [[1.0], [-10.0]]))
    ok = ok and not probe.psd and probe.min_eigenvalue < 0.0
    _verdict(5, "Gram positive semidefiniteness", ok)


def test_criterion_6_variance_identity():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim)
        law = random_distribution(rng, dim)
        quad, gap = variance_identity(psi, law)[:2]
        ok = ok and abs(quad - gap) <= 1e-10 * max(1.0, abs(gap)) and quad >= -1e-10
    _verdict(6, "variance identity", ok)


def test_criterion_7_bbm_kernel_identity():
    xs = np.linspace(-5.0, 5.0, 50)
    ok = True
    for alpha in (0.5, 1.0, 1.5, 2.0):
        psi = EuclideanPower(alpha, 1)
        params = BbmParams(0.5, alpha)
        for xi in xs:
            for eta in xs:
                scale = 1e-12 * (1.0 + abs(xi) + abs(eta)) ** alpha
                lhs = 2.0**alpha * np.sign(xi * eta) * bbm_covariance(params, abs(xi), abs(eta))
                ok = ok and abs(lhs - kernel_kpsi(psi, xi, eta)) <= scale
    _verdict(7, "bifractional kernel identity", ok)


def test_criterion_8_bbm_sampling():
    grid = np.linspace(0.2, 2.0, 10)
    ok = True
    for seed, (h, k) in enumerate([(0.5, 1.0), (0.5, 0.5), (0.8, 0.6), (0.6, 1.5)]):
        params = BbmParams(h, k)
        paths = bbm_sample_paths(params, grid, 100_000, seed=seed)
        emp = empirical_covariance(paths)
        for i in range(grid.size):
            for j in range(grid.size):
                target = bbm_covariance(params, grid[i], grid[j])
                prod = paths[:, i] * paths[:, j]
                stderr = prod.std(ddof=1) / np.sqrt(prod.size)
                ok = ok and abs(emp[i, j] - target) <= 5.0 * stderr
    _verdict(8, "bifractional path sampling", ok)


def test_criterion_9_monte_carlo_calibration():
    target = 2.0 / np.sqrt(np.pi)
    verdict = mc_inequality_verdict(EuclideanPower(1.0, 1), GaussianIso(1, 1.0, [0.0]), 10**6, seed=9)
    est_minus, est_plus = verdict.est_minus, verdict.est_plus
    ok = abs(est_minus.mean - target) <= 4 * est_minus.stderr
    ok = ok and abs(est_plus.mean - target) <= 4 * est_plus.stderr

    rng = np.random.default_rng(99)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        psi = random_ndf_spec(rng, dim, depth=2)
        if rng.random() < 0.5:
            spec = GaussianIso(dim, float(rng.uniform(0.5, 2.0)), rng.normal(size=dim))
        else:
            spec = DiscreteSampler(random_distribution(rng, dim, max_atoms=6))
        verdict = mc_inequality_verdict(psi, spec, 10**4, int(rng.integers(2**63)))
        ok = ok and verdict.kind != "ViolationDetected"
    _verdict(9, "Monte Carlo calibration", ok)


_CLI_CASES = [
    ("verify-inequality", {
        "psi": {"type": "euclidean_power", "alpha": 1, "dim": 1},
        "distribution": {"atoms": [[0], [1]], "weights": [0.5, 0.5]},
    }),
    ("verify-inequality", {
        "psi": {"type": "euclidean_power", "alpha": 1.5, "dim": 2},
        "sampler": {"type": "gaussian_iso", "dim": 2, "sigma": 1.0, "mean": [0.0, 0.5]},
        "n_samples": 2000,
        "seed": "0xdead",
    }),
    ("check-kernel", {
        "psi": {"type": "subordinated", "f": {"type": "log1p"},
                "inner": {"type": "euclidean_power", "alpha": 2, "dim": 1}},
        "points": [[0.5], [1.0], [-2.0]],
    }),
    ("variance-identity", {
        "psi": {"type": "euclidean_power", "alpha": 1, "dim": 1},
        "distribution": {"atoms": [[0], [1], [3]], "weights": [0.2, 0.3, 0.5]},
    }),
    ("counterexample", {"alpha": 3, "c": 1, "m": 10}),
    ("tail-identity", {"distribution": {"atoms": [[0], [1], [-2]], "weights": [0.25, 0.5, 0.25]}}),
    ("simulate-bbm", {"h": 0.6, "k": 1.5, "grid": [0.0, 0.5, 1.0, 1.5], "n_paths": 50, "seed": 11}),
    ("signed-sum", {
        "psi": {"type": "euclidean_power", "alpha": 1, "dim": 1},
        "pattern": [1, 1, -1, -1],
        "distribution": {"atoms": [[0], [1]], "weights": [0.5, 0.5]},
    }),
]


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    for idx, (command, config) in enumerate(_CLI_CASES):
        cfg = tmp_path / f"cfg{idx}.json"
        cfg.write_text(json.dumps(config))
        out1 = tmp_path / f"out{idx}_1.csv"
        out2 = tmp_path / f"out{idx}_2.csv"
        code1 = main([command, "--config", str(cfg), "--out", str(out1)])
        code2 = main([command, "--config", str(cfg), "--out", str(out2)])
        ok = ok and code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _verdict(10, "CLI determinism", ok)
