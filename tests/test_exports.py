import ast
import inspect
import re
from pathlib import Path

import bundleflow as bf

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bundleflow"


def _names_by_statement(path: Path) -> list[tuple[str | None, set[str]]]:
    """For each top-level statement of a file: the name it defines, if any, and
    every Name and attribute name in it (comments and strings do not count)."""
    out = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        out.append((getattr(stmt, "name", None), names))
    return out


def test_every_export_has_a_caller_beyond_its_own_unit_test():
    # An export earns its place in the package by a caller in the package, a
    # script or the benchmark, by README, or by an acceptance criterion; code
    # that only its own unit test reaches belongs in tests/util.py.
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    statements = {path: _names_by_statement(path) for path in files}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # Code blocks and inline code spans alike.
    in_readme = {word for span in re.findall(r"```.*?```|`[^`]+`", readme, re.S)
                 for word in re.findall(r"\w+", span)}

    def reached(name: str, obj) -> bool:
        # References inside the name's own definition, in its own module, do not count.
        home = PACKAGE / (obj.__module__.rpartition(".")[2] + ".py")
        return name in in_readme or any(
            name in names for path, stmts in statements.items()
            for owner, names in stmts if not (path == home and owner == name))

    exports = {name: getattr(bf, name) for name in bf.__all__}
    exports = {name: obj for name, obj in exports.items()
               if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert exports
    assert sorted(name for name, obj in exports.items() if not reached(name, obj)) == []


def _calls(names: tuple[str, ...], banned: set[str]) -> list[str]:
    """Every call of a ``banned`` name, bare or as an attribute, in the named package files."""
    found = []
    for name in names:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in banned:
                    found.append(f"{name}:{node.lineno} {called}")
    return found


def test_no_metric_is_solved_against_or_inverted_in_the_flow_or_higgs_stages():
    # Every H-relative operation in flow, hodge and analysis reads the
    # metric's scaled root or its frame (linalg.orthonormal_frame), so none
    # calls a LAPACK solve, inverse or Cholesky factorization; transport
    # stacks are inverted in bundle.connection_from_transports only.
    assert _calls(("flow.py", "hodge.py", "analysis.py"), {"solve", "inv", "cholesky"}) == []


def test_metrics_are_factored_only_where_they_are_checked():
    # flow, hodge, analysis and bundle take a metric's scaled root only from
    # linalg.check_metric, which validates the metric as it factors it; none
    # calls the factorization itself.
    assert _calls(("flow.py", "hodge.py", "analysis.py", "bundle.py"),
                  {"sqrt_pair", "scaled_sqrt"}) == []
