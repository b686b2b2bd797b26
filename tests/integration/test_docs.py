"""Documentation invariants: the shipped docs match the shipped code."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def _public_modules():
    return [
        p for p in SRC.rglob("*.py")
        if not p.name.startswith("_") or p.name == "__init__.py"
    ]


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (REPO / name).exists(), name


def test_design_lists_every_experiment_bench():
    design = (REPO / "DESIGN.md").read_text()
    for bench in (REPO / "benchmarks").glob("bench_*.py"):
        stem = bench.name
        if "ablation" in stem or "extension" in stem:
            continue  # covered by wildcard rows
        assert stem in design, f"DESIGN.md does not reference {stem}"


def test_experiments_covers_every_paper_artifact():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Figure 3", "Figure 4", "Figure 5"):
        assert artifact in text, artifact


@pytest.mark.parametrize("path", _public_modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_every_module_has_a_docstring(path):
    tree = ast.parse(path.read_text())
    doc = ast.get_docstring(tree)
    assert doc, f"{path} lacks a module docstring"
    assert len(doc) > 20


@pytest.mark.parametrize("path", _public_modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_every_public_callable_has_a_docstring(path):
    tree = ast.parse(path.read_text())
    undocumented = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                undocumented.append(node.name)
    assert not undocumented, f"{path}: missing docstrings on {undocumented}"


def test_shipped_code_carries_no_test_oracles():
    """Scalar reference paths live in ``tests/oracles``: the package has no
    fit-mode switch, defines no ``*_scalar`` function or method, and
    imports nothing from ``tests``."""
    with pytest.raises(ModuleNotFoundError):
        import repro.fitmode  # noqa: F401
    offenders = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "_scalar" in node.name:
                    offenders.append(f"{path.relative_to(SRC)}: def {node.name}")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "tests":
                    offenders.append(f"{path.relative_to(SRC)}: from {node.module}")
            elif isinstance(node, ast.Import):
                offenders += [
                    f"{path.relative_to(SRC)}: import {alias.name}"
                    for alias in node.names
                    if alias.name.split(".")[0] == "tests"
                ]
    assert not offenders


def test_readme_quickstart_names_real_api():
    import repro

    readme = (REPO / "README.md").read_text()
    for symbol in ("default_corpus", "app_level_split", "HMDDetector", "DetectorConfig"):
        assert symbol in readme
        assert hasattr(repro, symbol)


def test_persisted_json_goes_through_the_c_encoder():
    """Outside the CLI's terminal printing, ``src/repro`` never calls
    ``json.dump``/``json.dumps`` with ``indent=`` (which drops CPython to
    its pure-Python encoder) and never names ``to_jsonable``: every
    persisted document goes through ``repro.ioutil.dumps_json``."""
    offenders = []
    for path in SRC.rglob("*.py"):
        if path.name == "cli.py":
            continue
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append(f"{where}:{node.lineno}: json.{node.func.attr}(indent=...)")
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "to_jsonable":
                offenders.append(f"{where}:{node.lineno}: to_jsonable")
    assert not offenders, offenders
