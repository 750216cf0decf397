"""The package's public surface: what it exports, and which names cross modules."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import sinespikes

PACKAGE = Path(sinespikes.__file__).parent
# every module but the package itself and the command-line program
LIBRARY = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli"))

ENTRY_POINTS = {
    "DemixReport", "demix", "success",
    "MixtureInstance", "default_lambda",
    "SynthesisConfig", "synth_instance",
    "DualSdpProblem", "SdpSolution", "SolverOptions", "solve_dual_sdp",
    "CertificateReport", "CertificateSolution", "ValidationOptions", "run_certificate",
}


def test_package_exports_its_entry_points_only():
    public = {name for name, value in vars(sinespikes).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == ENTRY_POINTS
    assert sorted(sinespikes.__all__) == sorted(ENTRY_POINTS)


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", LIBRARY)
def test_all_lists_the_public_names_each_module_defines(module):
    mod = importlib.import_module(f"sinespikes.{module}")
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = {name for name in _defined_names(tree) if not name.startswith("_")}
    assert sorted(mod.__all__) == sorted(public)
    assert all(hasattr(mod, name) for name in mod.__all__)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_private_name_of_another(path):
    tree = ast.parse(path.read_text())
    siblings = set()  # names bound to sibling modules by "from . import x"
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")]
    assert private == []
