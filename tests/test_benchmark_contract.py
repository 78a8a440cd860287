"""The benchmark reaches the package by name: each name it uses must exist."""

import importlib.util
import inspect
import sys
from pathlib import Path

from pairlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_perfbench("tracing")
    targets = tracing.span_targets()
    assert all(targets.values()), [span for span, found in targets.items() if not found]
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, found in targets.items() for owner, attr in found
               if not hasattr(owner, attr)]
    assert not missing


def test_verify_workload_calls_the_cli_verifiers(monkeypatch):
    # workloads.py calls cli.verify_<name> for each of its VERIFY_NAMES and
    # passes seed= to every one outside UNSEEDED_VERIFIERS
    monkeypatch.syspath_prepend(str(PERFBENCH))     # workloads imports checks
    workloads = load_perfbench("workloads")
    assert set(workloads.UNSEEDED_VERIFIERS) <= set(workloads.VERIFY_NAMES)
    for name in workloads.VERIFY_NAMES:
        verifier = cli.VERIFIERS[name]
        assert getattr(cli, f"verify_{name}") is verifier
        takes_seed = "seed" in inspect.signature(verifier).parameters
        assert takes_seed == (name not in workloads.UNSEEDED_VERIFIERS), name
