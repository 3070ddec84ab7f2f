"""The benchmark workloads in ``perfbench/`` keep their seed-0 output bytes,
the ``popsim.cli`` names its traced runs wrap still exist and are called
through ``popsim.cli``, and every ``popsim`` name ``perfbench/`` imports
still resolves."""

import ast
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import popsim.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_workload_bytes_match_reference_digests(tmp_path, name):
    workload = load_perfbench("workloads").WORKLOADS[name]
    stem = tmp_path / "out"
    assert popsim.cli.main(workload.argv(0, stem)) == 0
    digests = {
        suffix: hashlib.sha256(stem.with_name(stem.name + suffix).read_bytes()).hexdigest()
        for suffix in workload.outputs
    }
    assert digests == REFERENCE[name]


def test_traced_names_are_cli_globals():
    wrapped = load_perfbench("spans").WRAPPED
    assert [name for name in wrapped if not hasattr(popsim.cli, name)] == []


def test_traced_names_are_called_through_cli(tmp_path, monkeypatch):
    # a command that imported one of these names locally would bypass the
    # ``popsim.cli`` global and silently drop its span
    calls = dict.fromkeys(load_perfbench("spans").WRAPPED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(popsim.cli, name, counting(name, getattr(popsim.cli, name)))
    out = str(tmp_path / "out.csv")
    for argv in (
        ["run", "--protocol", "leave-init", "--n", "16", "--threshold", "n^2/3", "--trials", "2"],
        ["coupon", "--n", "16", "--trials", "2"],
        ["influencer", "--n", "16", "--trials", "2"],
        ["exact", "--protocol", "pairwise-elimination", "--n", "3"],
    ):
        assert popsim.cli.main([*argv, "--out", out]) == 0
    assert [name for name, count in calls.items() if count == 0] == []


def test_perfbench_popsim_imports_resolve():
    missing, imported = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "popsim":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "popsim":
                        imported += 1
                        importlib.import_module(alias.name)
    assert imported > 0
    assert missing == []
