"""Public API that only the tests call: every function fracspec exports has
a caller in the package, the demos or the benchmark, so src/ holds no math
that only the tests run."""

import ast
import inspect
from pathlib import Path

import fracspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracspec"
MODULES = {p.stem for p in SRC.glob("*.py")} | {"fracspec"}
CALLERS = sorted(
    [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
)

# the one export allowed no caller, with the reason it stays
EXEMPT = {
    "project": "perfbench's tracer binds fracspec.spaces.gauss_jacobi, a name "
    "spaces imports only for project; project goes once the tracer drops that binding",
}


def _tail(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _uses(path: Path) -> set:
    """Names of fracspec functions the file uses: a name imported from
    fracspec, or defined in the package module itself, read outside its own
    def; an attribute of a fracspec module; or a tracer binding, a tuple
    ("fracspec.<module>", name, ...)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    if path.parent == SRC:
        bound = {s.name: s.name for s in tree.body if isinstance(s, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "fracspec"
        ):
            bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
    used = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                here.add(bound[node.id])
            elif isinstance(node, ast.Attribute) and _tail(node.value) in MODULES:
                here.add(node.attr)
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                module, name = node.elts[:2]
                if (
                    isinstance(module, ast.Constant)
                    and isinstance(name, ast.Constant)
                    and str(module.value).split(".")[0] == "fracspec"
                ):
                    here.add(name.value)
        if isinstance(stmt, ast.FunctionDef):
            here.discard(stmt.name)
        used |= here
    return used


def test_every_exported_function_has_a_caller_outside_the_tests():
    exported = {n for n in fracspec.__all__ if inspect.isfunction(getattr(fracspec, n))}
    used = set().union(*map(_uses, CALLERS))
    unused = sorted(exported - used - EXEMPT.keys())
    assert not unused, (
        f"only the tests call {unused}: drop them from src/ and test what "
        f"the package runs instead"
    )
    for name, reason in EXEMPT.items():
        assert name in exported, f"{name} has left the API; drop its exemption"
        assert name not in used, f"{name} has a caller now; drop its exemption ({reason})"
