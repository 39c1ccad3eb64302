import ast
import types
from pathlib import Path

import prunescope as ps
from prunescope.experiment.pipeline import STAGES

SRC = Path(ps.__file__).resolve().parent


def test_all_names_no_module():
    modules = [name for name in ps.__all__ if isinstance(getattr(ps, name), types.ModuleType)]
    assert modules == []


def test_all_lists_every_imported_name_once():
    imported = {
        name
        for name, value in vars(ps).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(ps.__all__) == imported
    assert len(ps.__all__) == len(imported)


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from prunescope import *", namespace)
    bound = {k: v for k, v in namespace.items() if not k.startswith("__")}
    assert sorted(bound) == sorted(ps.__all__)
    assert not [k for k, v in bound.items() if isinstance(v, types.ModuleType)]


def test_every_import_is_at_module_level():
    # a function-level import hides an import cycle instead of removing it
    nested = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def test_no_module_imports_the_trend_criteria():
    # experiment/trends.py reads finished runs; the pipeline and CLI never load it
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names += [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "trends" for name in names):
                    importers.append(str(path.relative_to(SRC)))
    assert importers == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py files import to re-export; every other import must be read
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        rel = path.relative_to(SRC)
        unused += [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_analysis_rows_are_named_only_by_the_tables():
    # the analysis stages and the trend criteria index pipeline._rows; only
    # the table functions apply the level-name rules or spell a profile or
    # interp name
    analysis = STAGES[STAGES.index("metrics") : STAGES.index("taylor") + 1]
    pipeline = ast.parse((SRC / "experiment/pipeline.py").read_text(encoding="utf-8"))
    stages = [
        node for node in pipeline.body
        if isinstance(node, ast.FunctionDef) and node.name in {f"stage_{s}" for s in analysis}
    ]
    assert len(stages) == len(analysis)
    trends = ast.parse((SRC / "experiment/trends.py").read_text(encoding="utf-8"))
    rules = {"level_name", "projection_name"}
    literals = {"final_min", "final_projected_prev", "interp_random_reinit"}
    found = []
    for tree in (*stages, trends):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in rules:
                    found.append(f"line {node.lineno}: calls {name}")
            elif isinstance(node, ast.Constant) and node.value in literals:
                found.append(f"line {node.lineno}: {node.value!r}")
    assert found == []
