import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ndflab import (CounterexampleParams, DiscreteDistribution, EuclideanPower, FromTriplet, LevyTriplet,
                    RawAbsPower, counterexample_distribution, variance_identity)
from ndflab import bbm as bbm_mod
from ndflab import cli
from ndflab import distributions as dist_mod
from ndflab import kernels as kernel_mod
from ndflab import mc as mc_mod
from ndflab.cli import _exact_check, main, run
from ndflab.core import BERNSTEIN, NDF
from ndflab.fields import MAX_DEPTH, ConfigError, canonical_dumps, decode, encode, json_schema
from ndflab.distributions import DISTRIBUTION
from ndflab.mc import SAMPLERS
from randgen import random_distribution, random_ndf_spec, random_sampler

PSI_ABS = {"type": "euclidean_power", "alpha": 1, "dim": 1}
PSI_SQUARE = {"type": "euclidean_power", "alpha": 2, "dim": 1}
BERNOULLI = {"atoms": [[0], [1]], "weights": [0.5, 0.5]}
GAUSS = {"type": "gaussian_iso", "dim": 1, "sigma": 1.0, "mean": [0.0]}
# K = 4 x x' has rank one; eigvalsh puts its zero eigenvalues at -2.6e-15
RANK_ONE_GRAM_AT_ZERO_TOLERANCE = {"psi": PSI_SQUARE, "points": [[1.0], [2.0], [3.0]], "tolerance": 0.0}


# battery seed 2 j0119: a pure-quadratic triplet on a law at scale 1e4, so
# E psi(X+Y) is about 1e8 and the identity's two sides differ by 2.9e-9
QUADRATIC_AT_SCALE = {
    "psi": {"type": "from_triplet", "dim": 2, "a": 0.0, "atoms": [],
            "q": [[0.3276748674498686, 0.2712459310273133], [0.2712459310273133, 0.28166350442105076]]},
    "distribution": {
        "atoms": [[-6542.487549323719, 1170.1246003830438], [4720.575791246169, -1987.0071790137326],
                  [665.1310664185676, 7064.0214849652175], [-319.8066441500732, -1922.9581499476376],
                  [-91.39644017392766, 1193.7741253032527], [-6326.02165235132, -5168.565697741462],
                  [11447.731121881316, -7179.6548676766]],
        "weights": [0.18005898683519805, 0.11643993410303331, 0.2352976176272336, 0.05396189023791391,
                    0.13514582596309044, 0.15154579195335788, 0.12754995328017274],
    },
}

# battery seed 1 j0120 and seed 2 j0194: check-kernel on triplet specs, which
# failed while the Levy term was evaluated at the formed pair points.  j0120
# has points at scale 1e4; j0194 at scale 0.03 fell short by -2.4e-16
# against a tolerance of 1.5e-16.
FALSE_KERNEL_FAILURES = {
    "seed 1 j0120": """{"psi": {"type": "from_triplet", "dim": 3, "a": 0.0,
        "q": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "atoms": [{"u": [-0.16494027006846412, -0.004183433631016838, -0.6129223281335484], "m": 1.0041557329559188},
                  {"u": [1.3427960973792694, 0.7198768219874367, -1.1637837450820094], "m": 0.5898857800222869}]},
      "points": [[-12861.855908106121, 5757.972145532713, 2025.8278712480803],
                 [1893.0771083908444, 7564.680094395579, 4316.339702546067],
                 [9333.984118513667, 4390.4205610091985, -121.36327797081589],
                 [5697.161943970671, -3541.347941702107, -4548.174795400265],
                 [-3637.2801072839056, 4869.490012713188, 2077.0892266776546],
                 [-6417.551989319267, 4025.219558609518, 2097.4707508374904],
                 [7958.952998432553, -3205.177261625865, -1003.5110957325936]]}""",
    "seed 2 j0194": """{"psi": {"type": "conic_sum", "dim": 1, "terms": [[0.7023847646415,
        {"type": "from_triplet", "dim": 1, "a": 0.0, "q": [[0.21906206248327076]],
         "atoms": [{"u": [0.47802625808104615], "m": 1.5644550085275388}]}]]},
      "points": [[0.019572941514812914], [0.01222715923882107], [-0.00434097801439153],
                 [-0.01176170811347868], [-0.036285123116439756], [0.023791682357636693],
                 [-0.006529568701091095], [-0.030774279741882127], [-0.004683901909845325],
                 [-0.013387137997000016]]}""",
}

# (command, config, path of the field at fault) for configs the field tables reject
NESTED_REJECTIONS = [
    ("verify-inequality", {"psi": {**PSI_ABS, "dim": 1.9}, "distribution": BERNOULLI}, "psi/dim"),
    ("verify-inequality", {"psi": {**PSI_ABS, "alpha": "1"}, "distribution": BERNOULLI}, "psi/alpha"),
    ("verify-inequality", {"psi": {**PSI_ABS, "alpha": True}, "distribution": BERNOULLI}, "psi/alpha"),
    ("verify-inequality", {"psi": {**PSI_ABS, "dimm": 1}, "distribution": BERNOULLI}, "psi/dimm"),
    ("verify-inequality", {"psi": {"type": "subordinated", "f": {"type": "power", "beta": 0.5, "betta": 1},
                                   "inner": PSI_ABS}, "distribution": BERNOULLI}, "psi/f/betta"),
    ("verify-inequality", {"psi": PSI_ABS, "distribution": {**BERNOULLI, "weight": [1.0]}},
     "distribution/weight"),
    ("verify-inequality", {"psi": PSI_ABS, "sampler": {**GAUSS, "sd": 1.0}, "n_samples": 1000, "seed": 1},
     "sampler/sd"),
    ("verify-inequality", {"psi": PSI_ABS, "sampler": {**GAUSS, "dim": 1.5}, "n_samples": 1000, "seed": 1},
     "sampler/dim"),
    ("verify-inequality", {"psi": {"type": "conic_sum", "dim": 2, "terms": [[1.0, PSI_ABS]]},
                           "distribution": BERNOULLI}, "psi"),
    ("check-kernel", {"psi": {"type": "from_triplet", "q": [[1.0]], "atoms": [{"u": [1.0], "m": 1.0, "w": 2}]},
                      "points": [[1.0]]}, "psi/atoms/0/w"),
    ("verify-inequality", {"psi": PSI_ABS, "distribution": {"atoms": [["0"], [1]], "weights": [0.5, 0.5]}},
     "distribution/atoms/0/0"),
    ("check-kernel", {"psi": {"type": "from_triplet", "q": [["1"]]}, "points": [[1.0]]}, "psi/q/0/0"),
    ("signed-sum", {"psi": PSI_ABS, "pattern": [1.5, -1.5], "distribution": BERNOULLI}, "pattern/0"),
    ("verify-inequality", {"psi": PSI_ABS, "sampler": GAUSS, "seed": 3}, "n_samples"),
    # invariants across fields, checked by a handler or the objects it builds
    ("signed-sum", {"psi": PSI_ABS, "pattern": [1, 1], "distribution": BERNOULLI}, "<root>"),
    ("counterexample", {"alpha": 3, "c": 5, "m": 2}, "<root>"),
    ("simulate-bbm", {"h": 0.9, "k": 2, "grid": [0.5, 1.0], "n_paths": 2, "seed": 1}, "<root>"),
    ("signed-sum", {"psi": PSI_ABS, "pattern": [1, -1, 1], "distribution": BERNOULLI}, "<root>"),  # odd length
    ("signed-sum", {"psi": PSI_ABS, "pattern": [1, 0], "distribution": BERNOULLI}, "pattern/1"),
    # a triplet has no constant term: psi(0) = 0 leaves "a" the one value 0
    ("check-kernel", {"psi": {"type": "from_triplet", "q": [[1.0]], "a": 0.5}, "points": [[1.0]]}, "psi/a"),
]

# a symmetric law, so E|X+Y| = E|X-Y|; the computed lhs is -1.8e-12, past 1e-12 * max(1, |lhs|)
TAIL_AT_SCALE = {"distribution": {
    "atoms": [-5174.274, 17650.317, 13063.372, 5174.274, -17650.317, -13063.372],
    "weights": [0.030665887850467293, 0.22721962616822433, 0.24211448598130844,
                0.030665887850467293, 0.22721962616822433, 0.24211448598130844]}}


def _law(k, dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=k)
    return {"atoms": rng.normal(size=(k, dim)).tolist(), "weights": (w / w.sum()).tolist()}


# a triplet with a quadratic part and two Levy atoms: the half-angle pair engine
TRIPLET_2D = {"type": "from_triplet", "dim": 2, "a": 0.0, "q": [[0.5, 0.1], [0.1, 0.3]],
              "atoms": [{"u": [0.7, -0.2], "m": 1.2}, {"u": [-0.3, 1.1], "m": 0.4}]}
LAW_2D = _law(200, 2, 11)  # 200 atoms: three tiles of pairs
LAW_1D = _law(300, 1, 12)
SAMPLED = {"sampler": GAUSS, "n_samples": 1000, "seed": 5}

# SHA-256 of the CSV each config writes; a change that moves a byte of any of them shows here
PINNED_CSV = {
    "verify exact": ("verify-inequality", {"psi": PSI_ABS, "distribution": BERNOULLI},
                     "74436ee1a4d0e5e325782eee7a3fc5fb9dcea05f497fd302a2ef23ff16b0d37e"),
    "verify exact triplet": ("verify-inequality", {"psi": TRIPLET_2D, "distribution": LAW_2D},
                             "78180bf89b853f4a9671206b334036d83ced5d57aae34145ff5caa13b058e697"),
    "verify monte carlo": ("verify-inequality", {"psi": PSI_ABS, **SAMPLED},
                           "ed512ece72afa4ea9ea60fb1402b9bdeae65f18d31ec5cc7b93d741fa0942bb6"),
    "kernel": ("check-kernel", {"psi": PSI_ABS, "points": [[1.0], [2.0], [-3.0]]},
               "47647cb8b79def659dd05231213dd336f87c0af47057a87eda922136e36103ec"),
    "kernel triplet": ("check-kernel", {"psi": TRIPLET_2D, "points": LAW_2D["atoms"][:150]},
                       "1b39ec49a55fbbab4cc78433963b857fd0041196b82408849bb23a6f9efbe819"),
    "variance at scale": ("variance-identity", QUADRATIC_AT_SCALE,
                          "9159013ecfb980a349eab333c8032272e04e81d7df3de19deef7f51d9eb5f62b"),
    "variance triplet": ("variance-identity", {"psi": TRIPLET_2D, "distribution": LAW_2D},
                         "dd6a1029bb0d0336880b5f18956aa14c52f770fbf0b84958c7f19982209d39fe"),
    "counterexample m": ("counterexample", {"alpha": 3, "c": 1, "m": 10},
                         "599204eee66a00330f8929e7305ba9f1379046e59cebeb5e919ed5a271b2d12a"),
    "counterexample grid": ("counterexample", {"alpha": 3.5, "c": 1, "m_grid": [2, 4, 6, 8, 10]},
                            "131ea2d69cb7b53e6bfc0f5b90277a0a78d7396eb21d0f6b1e2d374a163a4e96"),
    "tail at scale": ("tail-identity", TAIL_AT_SCALE,
                      "cf0cb472d43895f36a5cee2db0605d007a39fe9b74f78517cc98a09b7ccebe3c"),
    "tail": ("tail-identity", {"distribution": LAW_1D},
             "5e6a64db3564679be6e626af8d610e80f9abe82dad22c4d82a4130c41d92ad72"),
    "bbm": ("simulate-bbm", {"h": 0.5, "k": 1.0, "grid": [0.5, 1.0, 1.5], "n_paths": 5, "seed": 3},
            "a0ecb539c0c2d4066e5bfc3905017f8855125379dfb1d3d11cafc60a53a6f46c"),
    "signed exact": ("signed-sum", {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "distribution": BERNOULLI},
                     "9926b85bf5a76377e29571bb1b2a67e9ecb41114b341a3ff07c36d80c2e9de98"),
    "signed exact triplet": ("signed-sum", {"psi": TRIPLET_2D, "pattern": [1, -1, 1, -1],
                                            "distribution": _law(12, 2, 13)},
                             "40b185fe908d8cc88759d839a11be221a14980b5e83ec858006c49a304175478"),
    "signed monte carlo": ("signed-sum", {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], **SAMPLED},
                           "42bd8722daba0da6cd244396bcb8bf880d619e3c392877400fe899569fde6634"),
}

# base configs with each command's optional fields, an exact and a Monte Carlo one where both exist
FIELD_BASES = {
    "verify-inequality": [{"psi": PSI_ABS, "distribution": BERNOULLI},
                          {"psi": PSI_ABS, "sampler": GAUSS, "n_samples": 1000, "seed": 5}],
    "check-kernel": [{"psi": PSI_ABS, "points": [[1.0], [2.0], [-3.0]]}],
    "variance-identity": [{"psi": PSI_ABS, "distribution": BERNOULLI}],
    "counterexample": [{"alpha": 3, "c": 1, "m": 10}, {"alpha": 3, "c": 1, "m_grid": [1.0, 10.0, 100.0]}],
    "tail-identity": [{"distribution": BERNOULLI}],
    "simulate-bbm": [{"h": 0.5, "k": 1.0, "grid": [0.5, 1.0], "n_paths": 5, "seed": 3}],
    "signed-sum": [{"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "distribution": BERNOULLI},
                   {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "sampler": GAUSS, "n_samples": 1000, "seed": 5}],
}
# a valid value for each optional field, other than any value a base config gives it
FIELD_ALTERNATIVES = {
    "distribution": {"atoms": [[0.0], [2.0]], "weights": [0.25, 0.75]},
    "sampler": {"type": "uniform_box", "lower": [-1.0], "upper": [2.0]},
    "n_samples": 2000, "seed": 6, "z_threshold": 1e-9, "tolerance": 123.0,
    "m": 20.0, "m_grid": [2000.0, 3000.0],
}


def subordinated_chain(depth):
    psi = PSI_ABS
    for _ in range(depth):
        psi = {"type": "subordinated", "f": {"type": "log1p"}, "inner": psi}
    return psi


@functools.cache
def schema_validator(command):
    schema = json_schema(cli.COMMANDS[command])
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


@pytest.fixture(autouse=True)
def schema_agrees_with_the_decoder(monkeypatch):
    """Every config a test here hands to the CLI is checked against --schema too.

    The generated schema must accept exactly the configs that the command
    tables accept.  JSON Schema cannot state three of the decoder's checks,
    so configs they reject are exempt: the depth cap, finiteness (JSON has
    no NaN or Infinity, and a float64 overflow loads as Infinity), and the
    errors of a constructor or handler (a ConfigError whose ``__cause__``
    is set).
    """
    seen = []
    decode_config = cli.decode

    def recording(kind, config):
        command = next(name for name, record in cli.COMMANDS.items() if record is kind)
        try:
            built = decode_config(kind, config)
        except ConfigError as exc:
            if exc.__cause__ is None and not any(
                    text in str(exc) for text in ("nested deeper than", "expected a finite number")):
                seen.append((command, config, False))
            raise
        except Exception:
            seen.append((command, config, True))  # the tables accepted it; its handler failed
            raise
        seen.append((command, config, True))
        return built

    monkeypatch.setattr(cli, "decode", recording)
    yield
    for command, config, accepted in seen:
        assert schema_validator(command).is_valid(config) == accepted, (command, config)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestRun:
    def test_verify_inequality_exact(self):
        report = run("verify-inequality", {"psi": PSI_ABS, "distribution": BERNOULLI})
        assert report["passed"]
        assert report["results"]["gap"] == pytest.approx(0.5)

    def test_verify_inequality_mc(self):
        config = {
            "psi": PSI_ABS,
            "sampler": {"type": "gaussian_iso", "dim": 1, "sigma": 1.0, "mean": [0.0]},
            "n_samples": 10_000,
            "seed": "0x2a",
        }
        report = run("verify-inequality", config)
        assert report["passed"]
        assert report["results"]["verdict"] in ("ConsistentHolds", "Inconclusive")
        assert report["results"]["seed"] == 42

    @pytest.mark.parametrize("command,extra,column", [("verify-inequality", {}, 6),
                                                      ("signed-sum", {"pattern": [1, -1, 1, -1]}, 4)])
    def test_monte_carlo_reports_where_the_run_stopped(self, command, extra, column):
        n = 10 * mc_mod._CHUNK
        config = {"psi": PSI_ABS, "sampler": {"type": "uniform_box", "lower": [0.5], "upper": [2.0]},
                  "n_samples": n, "seed": 7, **extra}
        report = run(command, config)
        results = report["results"]
        assert results["verdict"] == "ConsistentHolds" and 1 < results["looks"] < 10
        assert results["n_samples"] == n and results["n_used"] == results["looks"] * mc_mod._CHUNK
        assert results["z_bound"] == mc_mod._look_bound(5.0, 10) and results["z_score"] <= -results["z_bound"]
        # the CSV's n_samples column holds the pairs used, and a rerun gives the same bytes
        assert report["csv"].splitlines()[1].split(",")[column] == str(results["n_used"])
        assert run(command, config)["csv"] == report["csv"]

    def test_counterexample_report(self):
        report = run("counterexample", {"alpha": 3, "c": 1, "m": 10})
        assert report["passed"]
        assert report["results"]["gap_closed_form"] == pytest.approx(21.88)
        assert report["results"]["violation_expected"] is True

    def test_counterexample_search(self):
        report = run("counterexample", {"alpha": 3, "c": 1, "m_grid": [2, 4, 6, 8, 10]})
        assert report["results"]["m_found"] is not None

    def test_check_kernel(self):
        report = run("check-kernel", {"psi": PSI_ABS, "points": [[1.0], [-10.0], [3.0]]})
        assert report["passed"] and report["results"]["psd"]

    def test_variance_identity(self):
        report = run("variance-identity", {"psi": PSI_ABS, "distribution": BERNOULLI})
        assert report["passed"]
        assert report["results"]["quadratic_form"] == pytest.approx(0.5)

    def test_tail_identity(self):
        report = run("tail-identity", {"distribution": BERNOULLI})
        assert report["passed"]
        assert report["results"]["lhs"] == pytest.approx(0.5)

    def test_simulate_bbm(self):
        report = run(
            "simulate-bbm",
            {"h": 0.5, "k": 1.0, "grid": [0.5, 1.0], "n_paths": 4, "seed": 1},
        )
        assert report["passed"]
        text = "".join(report["csv"])  # the CSV comes in pieces, formatted as they are read
        assert text.splitlines()[0] == "0.5,1"
        assert len(text.splitlines()) == 5

    @pytest.mark.parametrize("command,config,whole", [
        ("check-kernel", {"psi": PSI_ABS, "points": [[i / 3 - 100.0] for i in range(600)]},
         lambda c: kernel_mod.gram_to_csv(kernel_mod.gram_matrix(
             decode(NDF, c["psi"]), np.array(c["points"])))),
        ("simulate-bbm", {"h": 0.4, "k": 1.2, "grid": [0.01 * (i + 1) for i in range(700)], "n_paths": 250,
                          "seed": 3},
         lambda c: bbm_mod.paths_to_csv(c["grid"], bbm_mod.bbm_sample_paths(
             bbm_mod.BbmParams(c["h"], c["k"]), c["grid"], c["n_paths"], c["seed"]))),
    ])
    def test_matrix_csv_is_written_in_pieces_that_join_into_the_whole_text(
            self, tmp_path, monkeypatch, command, config, whole):
        text = whole(config)
        module, name = {"check-kernel": (kernel_mod, "gram_to_csv"), "simulate-bbm": (bbm_mod, "paths_to_csv")}[command]
        to_csv, pieces = getattr(module, name), []

        def recording(*args):
            pieces.append(to_csv(*args))
            return pieces[-1]

        monkeypatch.setattr(module, name, recording)
        cfg = write(tmp_path, "c.json", config)
        assert main([command, "--config", cfg]) == 0
        assert pieces == []  # nothing is formatted without --out
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert len(pieces) > 2 and all(len(piece) < len(text) / 2 for piece in pieces)
        assert "".join(pieces) == text and out.read_text() == text

    @pytest.mark.parametrize("command,config,matrix_bytes,slack", [
        # the whole run: beside the covariance, one block of paths and its text
        ("simulate-bbm", {"h": 0.55, "k": 1.2, "grid": [2.0 * (i + 1) / 800 for i in range(800)],
                          "n_paths": 1000, "seed": 7}, 800 * 800 * 8, 2 * 2**20),
        ("check-kernel", {"psi": {"type": "euclidean_power", "alpha": 1, "dim": 2},
                          "points": np.random.default_rng(8).normal(size=(600, 2)).tolist()},
         600 * 600 * 8, 1.5 * 2**20),
    ])
    def test_matrix_commands_hold_one_matrix_and_one_csv_block(self, tmp_path, command, config, matrix_bytes,
                                                               slack):
        out = str(tmp_path / "o.csv")
        small = {**config, **({"grid": config["grid"][:50], "n_paths": 10} if "grid" in config
                              else {"points": config["points"][:30]})}
        assert main([command, "--config", write(tmp_path, "s.json", small), "--out", out]) == 0  # imports
        cfg = write(tmp_path, "c.json", config)
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg, "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < matrix_bytes + slack

    def test_signed_sum_exact(self):
        report = run(
            "signed-sum",
            {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "distribution": BERNOULLI},
        )
        assert report["passed"]
        assert report["results"]["gap"] == pytest.approx(1.25)
        assert report["results"]["e_signed"] == pytest.approx(0.75)
        assert report["results"]["e_allplus"] == pytest.approx(2.0)
        assert report["csv"].splitlines()[1] == "exact,0.75,2,1.25,0,"

    def test_signed_sum_over_budget_samples_only_through_the_discrete_sampler(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.05, 1.0, size=40)
        law = {"atoms": rng.normal(size=(40, 1)).tolist(), "weights": (w / w.sum()).tolist()}
        config = {"psi": PSI_ABS, "pattern": [1, 1, 1, 1, -1, -1, -1, -1], "distribution": law}
        with pytest.raises(ConfigError, match='"type": "discrete"'):
            run("signed-sum", config)
        with pytest.raises(ConfigError, match="config field sampler: missing field"):
            run("signed-sum", {**config, "n_samples": 1000, "seed": 4})  # a law is never sampled
        report = run("signed-sum", {"psi": PSI_ABS, "pattern": config["pattern"], "n_samples": 1000, "seed": 4,
                                    "sampler": {"type": "discrete", "distribution": law}})
        assert report["csv"] == ("method,e_signed,e_allplus,gap,n_samples,seed\n"
                                 "monte_carlo,2.3844194426575491,2.6296604941355435,0.24524105147799435,1000,4\n")

    def test_signed_sum_monte_carlo_takes_the_paired_verdict(self):
        report = run("signed-sum", {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "sampler": GAUSS,
                                    "n_samples": 1000, "seed": 4})
        results = report["results"]
        assert results["method"] == "monte_carlo"
        assert results["verdict"] == "ConsistentHolds" and results["z_score"] <= 0.0
        assert report["passed"]

    def test_signed_pair_pattern_reproduces_verify_inequality(self):
        # one pair of signs is the pair check itself, over more than one chunk
        law = {"sampler": {"type": "uniform_box", "lower": [-1.0], "upper": [2.0]}, "n_samples": 70_000, "seed": 8}
        pair = run("verify-inequality", {"psi": PSI_ABS, **law})["results"]
        signed = run("signed-sum", {"psi": PSI_ABS, "pattern": [1, -1], **law})["results"]
        assert (signed["e_signed"], signed["e_allplus"], signed["z_score"]) == (
            pair["e_minus"], pair["e_plus"], pair["z_score"])

    def test_signed_pair_pattern_past_the_budget_reproduces_verify_inequality(self, tmp_path):
        # 3163^2 pair terms exceed the budget of a sum of two or more copies, but
        # one pair of signs is the pair check on the law itself, as in verify-inequality
        rng = np.random.default_rng(5)
        w = rng.uniform(0.05, 1.0, size=3163)
        law = {"atoms": rng.normal(size=(3163, 1)).tolist(), "weights": (w / w.sum()).tolist()}
        rows = []
        for command, extra in (("verify-inequality", {}), ("signed-sum", {"pattern": [1, -1]})):
            cfg, out = write(tmp_path, "c.json", {"psi": PSI_ABS, "distribution": law, **extra}), tmp_path / "o.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            rows.append(dict(zip(*(line.split(",") for line in out.read_text().splitlines()))))
        pair, signed = rows
        assert (signed["e_signed"], signed["e_allplus"], signed["gap"], signed["method"]) == (
            pair["e_minus"], pair["e_plus"], pair["gap"], "exact")

    def test_exact_verify_of_a_large_law_holds_no_pair_matrix(self, tmp_path):
        # the 3163-atom law of the test above: its 3163 x 3163 pair array
        # would be 76 MB, and the tiled sums keep the whole run under 8 MB
        rng = np.random.default_rng(5)
        w = rng.uniform(0.05, 1.0, size=3163)
        law = {"atoms": rng.normal(size=(3163, 1)).tolist(), "weights": (w / w.sum()).tolist()}
        cfg = write(tmp_path, "c.json", {"psi": PSI_ABS, "distribution": law})
        tracemalloc.start()
        try:
            code = main(["verify-inequality", "--config", cfg, "--out", str(tmp_path / "o.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20

    def test_exact_tolerance_scales_with_the_sums(self):
        # centred laws make E|X+Y|^2 = E|X-Y|^2, a true gap of 0; at scales up
        # to 1e7 the computed gap rounds far below the fixed 1e-10
        rng = np.random.default_rng(4)
        psi = {"type": "euclidean_power", "alpha": 2, "dim": 1}
        for _ in range(2000):
            atoms = rng.normal(scale=10.0 ** rng.uniform(2.0, 7.0), size=3)
            w = rng.uniform(0.05, 1.0, size=3)
            w /= w.sum()
            law = {"atoms": (atoms - w @ atoms)[:, None].tolist(), "weights": w.tolist()}
            report = run("verify-inequality", {"psi": psi, "distribution": law})
            assert report["passed"], report["results"]
        assert report["results"]["tolerance"] == 1e-10
        assert report["results"]["rounding_tolerance"] > 0.0

    def test_two_atom_cosine_laws_with_a_zero_gap_pass_at_any_scale(self):
        # psi = 1 - cos x has gap 2 (sum_i w_i sin x_i)^2, 0 for weights in
        # the ratio |sin x_2| : |sin x_1| on atoms whose sines differ in sign.
        # At |x| up to 1e9 the argument x_i +/- x_j rounds by about eps * 1e9,
        # far past eps * k * (E+ + E-), where the half-angle form rounds x_i
        # alone: 291 of these 1000 laws failed when the pairs were formed.
        psi = FromTriplet(LevyTriplet(np.zeros((1, 1)), (([1.0], 1.0),)))
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 1000:
            x = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(4.0, 9.0, size=2)
            s = np.sin(x)
            if s[0] * s[1] >= 0:
                continue
            w = np.abs(s[::-1]) / np.abs(s).sum()
            law = DiscreteDistribution(x[:, None], w / w.sum())
            if law.n_atoms != 2:
                continue
            checked += 1
            results, passed = _exact_check(psi, law, 1e-10)
            assert passed, (x, results)

    @pytest.mark.parametrize("job", sorted(FALSE_KERNEL_FAILURES))
    def test_battery_triplet_kernels_are_positive_semidefinite(self, tmp_path, job):
        cfg = write(tmp_path, "c.json", json.loads(FALSE_KERNEL_FAILURES[job]))
        assert main(["check-kernel", "--config", cfg, "--out", str(tmp_path / "k.csv")]) == 0

    def test_exact_tolerance_still_flags_the_counterexample(self):
        law = counterexample_distribution(CounterexampleParams(3.0, 1.0, 10.0))
        results, passed = _exact_check(RawAbsPower(3.0), law, 1e-10)
        assert not passed
        assert results["gap"] == pytest.approx(-21.88)

    def test_schema_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            run("tail-identity", {"nonsense": 1})
        with pytest.raises(ConfigError):
            run("verify-inequality", {"psi": PSI_ABS})  # neither law nor sampler
        with pytest.raises(ConfigError):
            run("counterexample", {"alpha": 1.5, "c": 1, "m": 10})  # alpha <= 2

    def test_variance_identity_allows_the_rounding_of_the_pair_sums(self):
        report = run("variance-identity", QUADRATIC_AT_SCALE)
        results = report["results"]
        assert report["passed"], results
        assert results["abs_error"] > results["tolerance"] * max(1.0, abs(results["gap"]))
        assert results["abs_error"] < results["rounding_tolerance"]

    def test_variance_identity_still_flags_the_counterexample(self):
        law = counterexample_distribution(CounterexampleParams(3.0, 1.0, 10.0))
        quad, gap, e_plus, e_minus = variance_identity(RawAbsPower(3.0), law)
        rounding = np.finfo(float).eps * law.n_atoms * (abs(e_plus) + abs(e_minus))
        assert quad < -(1e-10 + rounding)
        assert gap == e_plus - e_minus == pytest.approx(-21.88)

    def test_integral_floats_count_as_integers(self):
        config = {"psi": PSI_ABS, "sampler": GAUSS, "n_samples": 1000.0, "seed": 5.0}
        report = run("verify-inequality", config)
        assert report["results"]["n_samples"] == 1000 and report["results"]["seed"] == 5
        assert report["csv"] == run("verify-inequality", {**config, "n_samples": 1000, "seed": 5})["csv"]

    def test_law_id_hashes_the_law_as_built(self):
        # coincident atoms merge at construction, and integer literals become floats
        split = {"atoms": [[0.0], [1.0], [0.0]], "weights": [0.25, 0.5, 0.25]}
        rows = [run("verify-inequality", {"psi": PSI_ABS, "distribution": law})["csv"].splitlines()[1]
                for law in (BERNOULLI, split)]
        assert rows[0] == rows[1]

    def test_tail_identity_allows_the_rounding_of_the_pair_sums(self):
        report = run("tail-identity", TAIL_AT_SCALE)
        results = report["results"]
        assert report["passed"], results
        assert results["abs_error"] > results["tolerance"] * max(1.0, abs(results["lhs"]))
        assert results["abs_error"] < results["rounding_tolerance"]
        assert report["csv"].splitlines()[0] == "lhs,rhs,abs_error"

    def test_tail_identity_still_flags_a_wrong_integral(self, tmp_path, monkeypatch):
        integral = dist_mod.tail_integral
        monkeypatch.setattr(dist_mod, "tail_integral",
                            lambda law: integral(law) + 1e-6 * float(law.weights @ np.abs(law.atoms[:, 0])))
        assert main(["tail-identity", "--config", write(tmp_path, "t.json", TAIL_AT_SCALE)]) == 1

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_optional_field_changes_the_run_or_is_rejected(self, command):
        record = cli.COMMANDS[command]
        optional = [name for name in record.fields if name not in record.required and name != "command"]
        for base in FIELD_BASES[command]:
            expected = run(command, base)
            for name in optional:
                config = {**base, name: FIELD_ALTERNATIVES[name]}
                assert config[name] != base.get(name)
                try:
                    report = run(command, config)
                except ConfigError:
                    continue  # exit 2
                assert (report["results"], report["csv"]) != (expected["results"], expected["csv"]), (base, name)

    def test_cross_field_rules_name_fields_of_their_record(self):
        records = [*cli.COMMANDS.values(), DISTRIBUTION,
                   *(r for family in (NDF, BERNSTEIN, SAMPLERS) for r in family.records.values())]
        for record in records:
            names = [*record.one_of, *record.needs, *(need for needs in record.needs.values() for need in needs)]
            assert set(names) <= set(record.fields), record

    def test_command_field_must_match(self):
        with pytest.raises(ConfigError):
            run("tail-identity", {"command": "check-kernel", "distribution": BERNOULLI})

    def test_report_embeds_hash(self):
        r1 = run("tail-identity", {"distribution": BERNOULLI})
        r2 = run("tail-identity", {"distribution": BERNOULLI})
        assert r1["config_hash"] == r2["config_hash"]


class TestMain:
    def test_exit_0_and_csv(self, tmp_path):
        cfg = write(tmp_path, "c.json", {"psi": PSI_ABS, "distribution": BERNOULLI})
        out = tmp_path / "r.csv"
        assert main(["verify-inequality", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "psi_id,law_id,e_minus,e_plus,gap,method,n_samples,stderr,seed"

    def test_csv_pieces_are_written_unchanged(self, tmp_path):
        text = "".join(f"{i},{i / 7!r}\n" for i in range(100_000))
        pieces = [text[i:i + 300_001] for i in range(0, len(text), 300_001)]
        out = tmp_path / "r.csv"
        for csv in (text, iter(pieces)):
            cli.emit_csv({"csv": csv}, str(out))
            assert out.read_bytes() == text.encode("ascii")

    def test_exit_2_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["tail-identity", "--config", str(path)]) == 2

    def test_exit_2_missing_config(self):
        assert main(["tail-identity"]) == 2

    def test_exit_2_non_finite_weights(self, tmp_path):
        law = {"atoms": [[0], [1]], "weights": [float("nan"), 0.5]}
        cfg = write(tmp_path, "c.json", {"psi": PSI_ABS, "distribution": law})
        assert main(["verify-inequality", "--config", cfg]) == 2

    @pytest.mark.parametrize("sigma", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_exit_2_non_finite_config_number(self, tmp_path, capsys, sigma):
        path = tmp_path / "c.json"
        path.write_text(
            '{"psi": {"type": "euclidean_power", "alpha": 2, "dim": 1}, "n_samples": 1000, "seed": 1, '
            f'"sampler": {{"type": "gaussian_iso", "dim": 1, "sigma": {sigma}, "mean": [0]}}}}'
        )
        assert main(["verify-inequality", "--config", str(path)]) == 2
        assert "error: config field sampler/sigma: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_vector_entry_is_named(self, tmp_path, capsys, literal):
        path = tmp_path / "c.json"
        path.write_text('{"distribution": {"atoms": [[0], [1]], '
                        f'"weights": [0.5, {literal}]}}}}')
        assert main(["tail-identity", "--config", str(path)]) == 2
        assert "error: config field distribution/weights/1: expected a finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_2_monte_carlo_overflow(self, tmp_path):
        sampler = {"type": "gaussian_iso", "dim": 1, "sigma": 1e200, "mean": [0.0]}
        psi = {"type": "euclidean_power", "alpha": 2, "dim": 1}
        cfg = write(tmp_path, "c.json", {"psi": psi, "sampler": sampler, "n_samples": 1000, "seed": 1})
        assert main(["verify-inequality", "--config", cfg]) == 2

    def test_exit_2_non_finite_result(self, tmp_path, capsys):
        # psi(x +/- y) overflows to inf, so the gap is NaN
        psi = {"type": "euclidean_power", "alpha": 2, "dim": 1}
        law = {"atoms": [[1e200], [-1e200]], "weights": [0.5, 0.5]}
        cfg = write(tmp_path, "c.json", {"psi": psi, "distribution": law})
        assert main(["verify-inequality", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: result e_minus is not finite: inf\n"

    @pytest.mark.parametrize(
        "command,config,message",
        [
            ("variance-identity", {"psi": PSI_SQUARE, "distribution": {
                "atoms": [[1e200], [-1e200]], "weights": [0.5, 0.5]}}, "result quadratic_form is not finite"),
            ("tail-identity", {"distribution": {
                "atoms": [[1e308], [-1.5e308]], "weights": [0.5, 0.5]}}, "result lhs is not finite"),
            # (M + 1)^alpha overflows in the closed form
            ("counterexample", {"alpha": 3, "c": 1, "m": 1e120}, "result gap_closed_form is not finite"),
        ],
    )
    def test_exit_2_names_a_non_finite_result(self, tmp_path, capsys, command, config, message):
        cfg = write(tmp_path, "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command,config,matrix",
        [
            # these reached LAPACK ("Eigenvalues did not converge") or the JSON dump
            ("check-kernel", {"psi": PSI_SQUARE, "points": [[1e200], [2e200], [1.0]]}, "Gram matrix"),
            ("check-kernel", {"psi": PSI_SQUARE, "points": [[1e160], [1.0]]}, "Gram matrix"),
            ("simulate-bbm", {"h": 1, "k": 1, "grid": [1e-200, 1, 1e200], "n_paths": 2, "seed": 1},
             "bBm covariance matrix"),
        ],
    )
    def test_exit_2_names_a_non_finite_matrix(self, tmp_path, capsys, command, config, matrix):
        cfg = write(tmp_path, "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{matrix} has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command,config",
        [
            ("verify-inequality", {"psi": PSI_SQUARE, "n_samples": 1000, "seed": 1, "sampler": {
                "type": "gaussian_iso", "dim": 1, "sigma": 1e200, "mean": [0.0]}}),
            ("verify-inequality", {"psi": PSI_SQUARE, "distribution": {
                "atoms": [[1e200], [-1e200]], "weights": [0.5, 0.5]}}),
            ("check-kernel", {"psi": PSI_SQUARE, "points": [[1e200], [-1e200]]}),
        ],
    )
    def test_overflow_prints_only_the_error_line(self, tmp_path, capsys, command, config):
        # psi(x +/- y) overflows; the non-finite result is the error, and
        # numpy's warnings about it are not printed
        cfg = write(tmp_path, "c.json", config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg]) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_overflow_in_a_multi_chunk_run_prints_only_the_error_line(self, tmp_path, capsys):
        # every chunk is drawn and evaluated under the caller's np.errstate
        sampler = {"type": "gaussian_iso", "dim": 1, "sigma": 1e308, "mean": [0.0]}
        cfg = write(tmp_path, "c.json", {"psi": PSI_SQUARE, "sampler": sampler,
                                         "n_samples": 2 * mc_mod._CHUNK + 1, "seed": 1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify-inequality", "--config", cfg]) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "RuntimeWarning" not in err[0]

    @pytest.mark.parametrize("field,config", [
        ("tolerance", '{"distribution": {"atoms": [[0], [1]], "weights": [0.5, 0.5]}, "tolerance": 1%s}'),
        ("distribution/atoms/1/0", '{"distribution": {"atoms": [[0], [-1%s]], "weights": [0.5, 0.5]}}'),
    ])
    def test_integer_beyond_float64_names_its_field(self, tmp_path, capsys, field, config):
        path = tmp_path / "c.json"
        path.write_text(config % ("0" * 400))
        assert main(["tail-identity", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: config field {field}: expected a finite number, got an integer beyond float64\n")

    def test_parser_is_built_once(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        tail = write(tmp_path, "t.json", {"distribution": BERNOULLI})
        zero_tol = write(tmp_path, "k.json", RANK_ONE_GRAM_AT_ZERO_TOLERANCE)
        assert main(["tail-identity", "--config", tail]) == 0
        assert main(["check-kernel", "--config", zero_tol]) == 1
        assert main(["tail-identity", "--config", tail]) == 0

    def test_exit_2_float_overflow(self, tmp_path):
        # (M + 1)^alpha overflows float64 in the closed form
        cfg = write(tmp_path, "c.json", {"alpha": 3, "c": 1, "m": 1e300})
        assert main(["counterexample", "--config", cfg]) == 2

    def test_infinite_z_score_is_reported_as_null(self, tmp_path, capsys):
        # a point mass gives the same difference psi(0) - psi(2) on every draw
        point_mass = {"type": "discrete", "distribution": {"atoms": [[1.0]], "weights": [1.0]}}
        cfg = write(tmp_path, "c.json", {"psi": PSI_ABS, "sampler": point_mass, "n_samples": 1000, "seed": 1})
        assert main(["verify-inequality", "--config", cfg]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["z_score"] is None and results["verdict"] == "ConsistentHolds"

    def test_exit_2_nested_too_deeply(self, tmp_path, capsys):
        depth = 1500
        path = tmp_path / "deep.json"
        path.write_text(
            '{"psi": ' + '{"type": "subordinated", "f": {"type": "log1p"}, "inner": ' * depth
            + json.dumps(PSI_ABS) + "}" * depth + ', "distribution": ' + json.dumps(BERNOULLI) + "}"
        )
        assert main(["verify-inequality", "--config", str(path)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_exit_2_past_the_depth_cap(self, tmp_path, capsys):
        # deep enough for json.load, too deep for the decoder
        config = {"psi": subordinated_chain(MAX_DEPTH + 50), "distribution": BERNOULLI}
        cfg = write(tmp_path, "deep.json", config)
        assert main(["verify-inequality", "--config", cfg]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: config field psi/inner/inner/")
        assert err[0].endswith(f": nested deeper than {MAX_DEPTH} levels")

    def test_chain_within_the_depth_cap_runs(self, tmp_path):
        config = {"psi": subordinated_chain(MAX_DEPTH - 2), "distribution": BERNOULLI}
        assert main(["verify-inequality", "--config", write(tmp_path, "deep.json", config)]) == 0

    @pytest.mark.parametrize("command,config,path", NESTED_REJECTIONS)
    def test_exit_2_names_the_nested_field(self, tmp_path, capsys, command, config, path):
        assert main([command, "--config", write(tmp_path, "c.json", config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config field {path}: "), err

    def test_exit_3_on_internal_error(self, tmp_path, monkeypatch, capsys):
        def crash(**fields):
            raise RuntimeError("boom")

        record = dataclasses.replace(cli.COMMANDS["counterexample"], build=crash)
        monkeypatch.setitem(cli.COMMANDS, "counterexample", record)
        cfg = write(tmp_path, "c.json", {"alpha": 3, "c": 1, "m": 10})
        assert main(["counterexample", "--config", cfg]) == 3
        assert capsys.readouterr().err.strip().splitlines()[-1] == "internal error: RuntimeError: boom"

    def test_exit_3_on_handler_type_error(self, tmp_path, monkeypatch, capsys):
        # a bug in a handler must not read as a config error
        def crash(**fields):
            raise TypeError("bug")

        record = dataclasses.replace(cli.COMMANDS["counterexample"], build=crash)
        monkeypatch.setitem(cli.COMMANDS, "counterexample", record)
        cfg = write(tmp_path, "c.json", {"alpha": 3, "c": 1, "m": 10})
        assert main(["counterexample", "--config", cfg]) == 3
        assert capsys.readouterr().err.strip().splitlines()[-1] == "internal error: TypeError: bug"

    def test_exit_2_override_on_non_object_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", [1, 2])
        assert main(["simulate-bbm", "--config", cfg, "--seed", "3"]) == 2
        assert capsys.readouterr().err.strip() == "error: config field <root>: expected object, got array"

    @pytest.mark.parametrize("command,flag", [
        ("check-kernel", "--seed"), ("variance-identity", "--samples"), ("counterexample", "--seed"),
        ("tail-identity", "--seed"), ("simulate-bbm", "--samples")])
    def test_override_flags_only_where_the_table_has_the_field(self, tmp_path, capsys, command, flag):
        cfg = write(tmp_path, "c.json", {})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_exit_2_overrides_on_an_exact_law(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"psi": PSI_ABS, "distribution": BERNOULLI})
        assert main(["verify-inequality", "--config", cfg, "--samples", "500", "--seed", "2"]) == 2
        assert capsys.readouterr().err.strip() == "error: config field sampler: missing field"

    def test_exit_2_schema_violation(self, tmp_path):
        cfg = write(tmp_path, "c.json", {"alpha": 3})
        assert main(["counterexample", "--config", cfg]) == 2

    def test_exit_1_on_math_failure(self, tmp_path):
        # zero tolerance turns a zero eigenvalue that rounds below zero into
        # a reported failure of the PSD check
        cfg = write(tmp_path, "k.json", RANK_ONE_GRAM_AT_ZERO_TOLERANCE)
        assert main(["check-kernel", "--config", cfg]) == 1

    @pytest.mark.parametrize("config,code", [
        ({"psi": PSI_ABS, "points": [[1.0], [-10.0], [3.0]]}, 0),  # tolerance derived from the matrix
        (RANK_ONE_GRAM_AT_ZERO_TOLERANCE, 1)])
    def test_report_is_one_json_line_with_a_boolean_psd(self, tmp_path, capsys, config, code):
        assert main(["check-kernel", "--config", write(tmp_path, "k.json", config)]) == code
        out = capsys.readouterr().out
        results = json.loads(out)["results"]
        assert results["psd"] is (code == 0)
        assert type(results["tolerance"]) is float
        assert out.count("\n") == 1

    def test_schema_flag(self, capsys):
        assert main(["simulate-bbm", "--schema"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["required"] == ["h", "k", "grid", "n_paths", "seed"]

    def test_schema_describes_nested_specs(self, capsys):
        assert main(["signed-sum", "--schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["properties"]["psi"] == {"$ref": "#/$defs/ndf"}
        tags = [v["properties"]["type"]["const"] for v in schema["$defs"]["ndf"]["oneOf"]]
        assert tags == list(NDF.records)
        assert set(schema["$defs"]) == {"ndf", "bernstein", "sampler"}

    def test_seed_and_samples_override(self, tmp_path):
        cfg = write(
            tmp_path,
            "c.json",
            {
                "psi": PSI_ABS,
                "sampler": {"type": "gaussian_iso", "dim": 1, "sigma": 1.0, "mean": [0.0]},
                "n_samples": 200,
                "seed": 1,
            },
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["verify-inequality", "--config", cfg, "--out", str(out1),
                     "--seed", "9", "--samples", "500"]) == 0
        assert main(["verify-inequality", "--config", cfg, "--out", str(out2),
                     "--seed", "9", "--samples", "500"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert ",500," in out1.read_text()

    @pytest.mark.parametrize(
        "command,config",
        [
            ("verify-inequality", {"psi": PSI_ABS, "distribution": BERNOULLI}),
            (
                "verify-inequality",
                {
                    "psi": PSI_ABS,
                    "sampler": {"type": "gaussian_iso", "dim": 1, "sigma": 1.0, "mean": [0.0]},
                    "n_samples": 1000,
                    "seed": 5,
                },
            ),
            ("check-kernel", {"psi": PSI_ABS, "points": [[1.0], [2.0], [-3.0]]}),
            ("variance-identity", {"psi": PSI_ABS, "distribution": BERNOULLI}),
            ("counterexample", {"alpha": 3, "c": 1, "m": 10}),
            ("tail-identity", {"distribution": BERNOULLI}),
            ("simulate-bbm", {"h": 0.5, "k": 1.0, "grid": [0.5, 1.0], "n_paths": 5, "seed": 3}),
            (
                "signed-sum",
                {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "distribution": BERNOULLI},
            ),
            # more than two 32 768-sample chunks
            ("signed-sum", {"psi": PSI_ABS, "pattern": [1, -1, -1, 1], "sampler": GAUSS,
                            "n_samples": 70_000, "seed": 6}),
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, command, config):
        cfg = write(tmp_path, "c.json", config)
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", list(PINNED_CSV))
    def test_csv_bytes_are_pinned(self, tmp_path, name):
        command, config, digest = PINNED_CSV[name]
        out = tmp_path / "o.csv"
        assert main([command, "--config", write(tmp_path, "c.json", config), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command,config,k", [
        ("verify-inequality", {"psi": PSI_ABS, "distribution": BERNOULLI}, 2),
        ("signed-sum", {"psi": PSI_ABS, "pattern": [1, 1, -1, -1], "distribution": BERNOULLI}, 3),
        ("counterexample", {"alpha": 3, "c": 1, "m": 10}, 2),
        ("tail-identity", {"distribution": BERNOULLI}, 2),
        ("variance-identity", {"psi": PSI_ABS, "distribution": BERNOULLI}, 2),
        ("check-kernel", {"psi": PSI_ABS, "points": [[1.0], [2.0], [-3.0]]}, 3),
    ])
    def test_each_exact_command_walks_the_pair_engine_once(self, monkeypatch, command, config, k):
        # one pair_values call on the command's k-atom law gives both signs of every pair
        calls = []
        for cls in (EuclideanPower, RawAbsPower):
            def spy(psi, x, pair_values=cls.pair_values):
                calls.append(x.shape[0])
                return pair_values(psi, x)

            monkeypatch.setattr(cls, "pair_values", spy)
        assert run(command, config)["passed"]
        assert calls == [k]


class TestSchema:
    def test_schema_and_decoder_agree_on_random_objects(self):
        families = [(NDF, random_ndf_spec), (DISTRIBUTION, random_distribution), (SAMPLERS, random_sampler)]
        validators = [jsonschema.Draft202012Validator(json_schema(kind)) for kind, _ in families]
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            for (kind, generate), validator in zip(families, validators):
                obj = encode(kind, generate(rng, dim))
                assert validator.is_valid(obj), obj
                assert canonical_dumps(encode(kind, decode(kind, obj))) == canonical_dumps(obj)

    def test_cli_import_leaves_jsonschema_out(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import ndflab.cli; "
                "print('jsonschema' in sys.modules)")
        out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_concurrent_futures_out(self):
        # nothing on the command path starts an executor
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import ndflab.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
