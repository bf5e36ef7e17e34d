"""Every package name the benchmark in perfbench/ looks up must resolve.

The benchmark's tracer (perfbench/spans.py) wraps package functions by the
module attribute they are looked up under, plus the experiments' thread
pool, and its workloads import a few names directly. A refactor that drops
one of them would leave a benchmark layer reading zero, or break a
workload, without failing any other test of the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrap_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for names, _ in spans.WRAPS.values() for t in names]
    return targets + ["evaluation._pmap"]  # the pool span, patched by name


def _workload_imports() -> list[str]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("latentprior."):
            module = node.module.split(".", 1)[1]
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_the_workloads_import_names_from_the_package():
    # guards the parse: the cli workload's set-up imports the generator
    assert "generator.synthesize" in _workload_imports()


@pytest.mark.parametrize("target", _wrap_targets() + _workload_imports())
def test_name_resolves(target):
    module, attr = target.rsplit(".", 1)
    mod = importlib.import_module(f"latentprior.{module}")
    assert callable(getattr(mod, attr, None)), f"latentprior.{target} is missing"
