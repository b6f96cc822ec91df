"""The package's export list agrees with what its ``__init__`` imports."""

import ast
from collections import Counter
from pathlib import Path

import zncert


def test_exports_resolve_once_and_list_every_public_import():
    listed = Counter(zncert.__all__)
    assert [name for name, count in listed.items() if count > 1] == []
    assert [name for name in listed if not hasattr(zncert, name)] == []
    tree = ast.parse(Path(zncert.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) > 50
    public = [name for name in imported if not name.startswith("_") or name == "__version__"]
    assert [name for name in public if name not in listed] == []
