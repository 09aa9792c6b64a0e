"""Every name that `qsalab/__init__.py` exports is used by the program:
referenced, as an AST name, attribute or import, by a package module other
than `__init__.py`, a demo, a perfbench file (the attribute strings of
`tracing.TARGETS` included) or the acceptance suite.  A name that only its
own tests reach is code that nothing needs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsalab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            names.update(target.elts[-1].value for target in node.value.elts)
    return names


def users():
    yield from (path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py")
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "perfbench").glob("*.py"))
    yield ROOT / "tests" / "test_acceptance.py"


def test_every_export_is_used_outside_its_tests():
    used = set().union(*map(referenced_names, users()))
    unused = sorted(exported_names() - used)
    assert unused == [], f"exported but used only by their tests: {unused}"
