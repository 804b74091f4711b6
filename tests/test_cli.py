import dataclasses
import functools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ndflab import CounterexampleParams, RawAbsPower, counterexample_distribution, variance_identity
from ndflab import cli
from ndflab import distributions as dist_mod
from ndflab.cli import _exact_check, main, run
from ndflab.core import BERNSTEIN, MAX_DEPTH, NDF, ConfigError, canonical_dumps, decode, encode, json_schema
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
    tables accept.  JSON Schema cannot state two of the decoder's checks,
    so configs they reject are exempt: the depth cap, and the errors of
    a constructor or handler (a ConfigError whose ``__cause__`` is set).
    """
    seen = []
    decode_config = cli.decode

    def recording(kind, config):
        command = next(name for name, record in cli.COMMANDS.items() if record is kind)
        try:
            built = decode_config(kind, config)
        except ConfigError as exc:
            if exc.__cause__ is None and "nested deeper than" not in str(exc):
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
        assert report["csv"].splitlines()[0] == "0.5,1"
        assert len(report["csv"].splitlines()) == 5

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
        integral = dist_mod._tail_integral
        monkeypatch.setattr(dist_mod, "_tail_integral",
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

    def test_csv_longer_than_a_write_chunk_is_written_unchanged(self, tmp_path):
        text = "".join(f"{i},{i / 7!r}\n" for i in range(2 * cli._WRITE_CHUNK // 20))
        assert len(text) > 2 * cli._WRITE_CHUNK
        out = tmp_path / "r.csv"
        cli.emit_csv({"csv": text}, str(out))
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
        assert f"non-finite number {sigma} in config" in capsys.readouterr().err

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
        assert "Out of range float" in capsys.readouterr().err

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

    def test_parser_is_built_once(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        tail = write(tmp_path, "t.json", {"distribution": BERNOULLI})
        zero_tol = write(tmp_path, "k.json", RANK_ONE_GRAM_AT_ZERO_TOLERANCE)
        assert main(["tail-identity", "--config", tail]) == 0
        assert main(["check-kernel", "--config", zero_tol]) == 1
        assert main(["tail-identity", "--config", tail]) == 0

    def test_exit_2_float_overflow(self, tmp_path):
        # (M + 1)^alpha overflows a Python float in the closed form
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
            # more than one 65 536-sample chunk
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
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
