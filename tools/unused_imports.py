"""List imported names that a module never uses.

Usage: python3 tools/unused_imports.py FILE...

Each FILE is parsed with `ast`; a name bound by `import` or `from ...
import` counts as used when it appears as a name anywhere else in the
module; a name used only inside a string (a quoted annotation) is
reported.  `from __future__` imports are skipped.  Prints one line per
unused name and exits 1 if there is any.  Package `__init__.py` files
re-export their imports, so leave them out.
"""

from __future__ import annotations

import ast
import sys


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(paths: list[str]) -> int:
    found = 0
    for path in paths:
        with open(path) as fh:
            for line, name in unused_imports(fh.read()):
                print(f"{path}:{line}: {name} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
