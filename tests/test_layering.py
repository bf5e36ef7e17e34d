"""formats.py is the package's one module of file formats.

gaussian, generator and spaces hold numerics only, so they import neither
json nor struct. formats imports no package module but errors, so any
module can import it without a cycle: generator re-exports write_image_f64
from it for the benchmark's workloads.

Importing the CLI loads only what every command needs: scipy, and the
concurrent.futures and logging that a thread pool brings, wait until a
caller asks for them. It also sets BLAS to one thread, before numpy
loads, unless the user set the thread count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latentprior"


def _imports(name: str) -> tuple[set, set]:
    """(modules from outside the package, package modules) a module imports."""
    outside, inside = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "latentprior." * bool(node.level) + (node.module or "")
            if base.rstrip(".") == "latentprior":  # "from . import x"
                modules = [f"latentprior.{alias.name}" for alias in node.names]
            else:
                modules = [base]
        else:
            continue
        for module in modules:
            top, _, rest = module.partition(".")
            if top == "latentprior":
                inside.add(rest.partition(".")[0])
            else:
                outside.add(top)
    return outside, inside


@pytest.mark.parametrize("name", ["gaussian", "generator", "spaces"])
def test_numeric_modules_import_no_serializer(name):
    outside, _ = _imports(name)
    assert not outside & {"json", "struct"}, f"{name}.py imports {outside}"


def test_formats_imports_only_errors_from_the_package():
    _, inside = _imports("formats")
    assert inside == {"errors"}


def test_the_import_reader_sees_every_form_of_import():
    # guards the parse: "import math", "from .formats import ..." and
    # "from . import features"
    outside, inside = _imports("inversion")
    assert "math" in outside and {"formats", "features"} <= inside


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_import_cli(code: str, **env) -> str:
    """Stdout of a fresh interpreter that imports the CLI, then runs code,
    with the BLAS thread variables unset unless given."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", f"import os, sys, latentprior.cli; {code}"],
        capture_output=True, text=True, env={**base, "PYTHONPATH": path, **env},
        check=True, timeout=120)
    return proc.stdout


def test_importing_the_cli_loads_no_scipy_thread_pool_or_logging():
    loaded = set(_fresh_import_cli("print(*sys.modules)").split())
    assert loaded & {"scipy", "concurrent.futures", "logging"} == set()


def test_importing_the_cli_runs_blas_on_one_thread_unless_the_user_set_it():
    show = f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS}))"
    assert _fresh_import_cli(show).split() == ["1", "1", "1"]
    assert _fresh_import_cli(show, OPENBLAS_NUM_THREADS="3").split() == ["3", "1", "1"]
