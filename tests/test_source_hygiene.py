"""Two checks a linter would make, on the package source: no attribute is
stored that nothing reads, and no module-level import goes unused."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "crossfair").glob("*.py"))
WRITE = re.compile(r"\bself\.(\w+)\s*=(?!=)")


def test_every_stored_attribute_is_read():
    text = "".join(path.read_text(encoding="utf-8")
                   for folder in ("src", "tests", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    stored = {name for path in MODULES for name in WRITE.findall(path.read_text(encoding="utf-8"))}
    # a read is any ``.name`` but one that is assigned to
    unread = [name for name in sorted(stored)
              if not re.search(rf"\.{name}\b(?!\s*=(?!=))", text)]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") \
                != "__future__":
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - exported) == []
