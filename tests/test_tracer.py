"""The benchmark's span tracer must not change a byte of what a command writes."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ndflab import cli

PSI_ABS = {"type": "euclidean_power", "alpha": 1, "dim": 1}
# nested eval_many calls: a conic sum over a triplet and a subordinated power
PSI_2D = {"type": "conic_sum", "dim": 2, "terms": [
    [1.0, {"type": "from_triplet", "dim": 2, "q": [[0.5, 0.1], [0.1, 0.3]], "atoms": [{"u": [0.7, -0.2], "m": 1.2}]}],
    [0.5, {"type": "subordinated", "f": {"type": "log1p"},
           "inner": {"type": "euclidean_power", "alpha": 1.5, "dim": 2}}],
]}

CONFIGS = {
    "counterexample sampler": ("verify-inequality", {
        "psi": PSI_ABS, "sampler": {"type": "counterexample", "alpha": 3.5, "c": 1.5, "m": 10},
        "n_samples": 70_000, "seed": 6}),
    "gaussian sampler": ("verify-inequality", {
        "psi": PSI_2D, "sampler": {"type": "gaussian_iso", "dim": 2, "sigma": 1.5, "mean": [0.5, 0.0]},
        "n_samples": 5000, "seed": 5}),
    "box signed sum": ("signed-sum", {
        "psi": PSI_ABS, "pattern": [1, -1, 1, -1], "sampler": {"type": "uniform_box", "lower": [-1.0], "upper": [2.0]},
        "n_samples": 5000, "seed": 2}),
    "exact verify": ("verify-inequality", {
        "psi": PSI_2D, "distribution": {"atoms": [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], "weights": [0.2, 0.3, 0.5]}}),
    "kernel": ("check-kernel", {"psi": PSI_2D, "points": [[1.0, 0.0], [2.0, 1.0], [-3.0, 0.5]]}),
    "bbm": ("simulate-bbm", {"h": 0.5, "k": 1.0, "grid": [0.5, 1.0, 1.5], "n_paths": 5, "seed": 3}),
}


@pytest.fixture(scope="module")
def tracer_module():
    # loaded by path with no .pyc written, so the run leaves bench/ as it was
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _csv_text(command, config):
    csv = cli.run(command, config)["csv"]
    return csv if isinstance(csv, str) else "".join(csv)  # pieces are formatted as they are read


@pytest.mark.parametrize("memory", [False, True])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_traced_run_writes_the_untraced_bytes(tracer_module, name, memory):
    command, config = CONFIGS[name]
    untraced = _csv_text(command, config)
    tracer = tracer_module.Tracer(memory=memory)
    tracer.install()
    try:
        traced = _csv_text(command, config)
    finally:
        restored = tracer.uninstall()
    assert restored
    assert tracer.spans  # the run went through the wrappers
    assert traced == untraced
