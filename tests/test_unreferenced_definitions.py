"""Every function, method and class defined in src/ is referenced in src/.

A reference is any read of the name, bare or as an attribute, in any src
module; an import alone is not one. Dunder methods are called by Python
itself. A definition kept for another reader is allowlisted below with
its reason, and the allowlist may name only definitions that exist.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latentprior"

_PIN = "the benchmark wraps it by name (tests/test_benchmark_names.py)"
_ORACLE = "a test oracle of the batched path"

# module.qualified name -> why it stays without a caller in src/
ALLOWED = {
    "generator.synthesize": _PIN,
    "spaces.broadcast_style": _PIN,
    "gaussian.mahalanobis_sq_grad_batch": _PIN,
    "gaussian.save_model": _PIN,
    "formats.write_latents": _PIN,
    "formats.write_image_f64": _PIN,
    "inversion.objective_and_gradient": _ORACLE,
    "spaces.mahalanobis_sq_plus": _ORACLE,
    "generator.min_preactivation_gap": _ORACLE,
    "features.min_preactivation_gap": _ORACLE,
    "cli.replay_manifest": "public API: re-runs a command from its manifest",
    "cli._Parser.error": "argparse calls it on a bad command line",
}


def _definitions(tree: ast.AST, module: str, prefix: str = ""):
    """(module.qualified name, bare name) of every def and class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}{node.name}"
            yield f"{module}.{qualified}", node.name
            yield from _definitions(node, module, f"{qualified}.")
        else:
            yield from _definitions(node, module, prefix)


def _sources() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unreferenced(trees: dict) -> list[str]:
    """The definitions whose name no src module reads, allowlisted or not."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [qualified for module, tree in trees.items()
            for qualified, name in _definitions(tree, module)
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_referenced_or_allowlisted():
    assert [name for name in unreferenced(_sources()) if name not in ALLOWED] == []


def test_every_allowlisted_name_is_defined():
    defined = {qualified for module, tree in _sources().items()
               for qualified, _ in _definitions(tree, module)}
    assert sorted(set(ALLOWED) - defined) == []


def test_the_reader_sees_each_kind_of_reference():
    tree = ast.parse("import os\nfrom .a import kept\n"
                     "class A:\n    def m(self):\n        pass\n"
                     "    def n(self):\n        return self.m()\n"
                     "    def __init__(self):\n        pass\n"
                     "def f():\n    def inner():\n        pass\n    return A\n"
                     "def kept():\n    pass\n")
    assert unreferenced({"mod": tree}) == ["mod.A.n", "mod.f", "mod.f.inner",
                                           "mod.kept"]
