"""The benchmark workloads in ``perfbench/`` keep their seed-0 output bytes,
the ``popsim.cli`` names its traced runs wrap still exist, and every
``popsim`` name ``perfbench/`` imports still resolves."""

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
