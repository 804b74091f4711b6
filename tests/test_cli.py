import json

import numpy as np
import pytest

from ndflab import CounterexampleParams, RawAbsPower, counterexample_distribution
from ndflab import cli
from ndflab.cli import ConfigError, _exact_check, main, run

PSI_ABS = {"type": "euclidean_power", "alpha": 1, "dim": 1}
BERNOULLI = {"atoms": [[0], [1]], "weights": [0.5, 0.5]}


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

    def test_signed_sum_over_budget_falls_back_to_monte_carlo(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.05, 1.0, size=40)
        config = {
            "psi": PSI_ABS,
            "pattern": [1, 1, 1, 1, -1, -1, -1, -1],
            "distribution": {"atoms": rng.normal(size=(40, 1)).tolist(), "weights": (w / w.sum()).tolist()},
        }
        with pytest.raises(ConfigError):
            run("signed-sum", config)
        report = run("signed-sum", {**config, "n_samples": 1000, "seed": 4})
        assert report["results"]["method"] == "monte_carlo"

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

    def test_exit_3_on_internal_error(self, tmp_path, monkeypatch, capsys):
        def crash(config):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "counterexample", crash)
        cfg = write(tmp_path, "c.json", {"alpha": 3, "c": 1, "m": 10})
        assert main(["counterexample", "--config", cfg]) == 3
        assert capsys.readouterr().err.strip().splitlines()[-1] == "internal error: RuntimeError: boom"

    def test_exit_2_override_on_non_object_config(self, tmp_path):
        cfg = write(tmp_path, "c.json", [1, 2])
        assert main(["tail-identity", "--config", cfg, "--seed", "3"]) == 2

    def test_exit_2_schema_violation(self, tmp_path):
        cfg = write(tmp_path, "c.json", {"alpha": 3})
        assert main(["counterexample", "--config", cfg]) == 2

    def test_exit_1_on_math_failure(self, tmp_path):
        # zero tolerance turns the last-bit rounding mismatch between the
        # quadratic form and the double sum into a reported failure
        cfg = write(
            tmp_path,
            "v.json",
            {
                "psi": {"type": "euclidean_power", "alpha": 0.7, "dim": 1},
                "distribution": {"atoms": [[0.1], [1.7]], "weights": [1 / 3, 2 / 3]},
                "tolerance": 0.0,
            },
        )
        assert main(["variance-identity", "--config", cfg]) == 1

    def test_schema_flag(self, capsys):
        assert main(["simulate-bbm", "--schema"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["required"] == ["h", "k", "grid", "n_paths", "seed"]

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
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, command, config):
        cfg = write(tmp_path, "c.json", config)
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
