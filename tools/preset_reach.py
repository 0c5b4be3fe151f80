"""The functions and methods of ``spde_manifold`` that no preset run enters.

Runs ``check`` and ``simulate`` on every preset, at the preset's own seed and
at ``--seed 2``, into one temporary root, then ``report`` over that root, all
through ``cli.main``, under a ``sys.setprofile`` hook installed before the
package is imported, so that calls made at import time count too.  Prints,
one per line, every function or method defined under the package directory
(nested ones included) that no call entered, as ``module.qualified.name``.

    PYTHONPATH=src python3 tools/preset_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (None, 2)  # None runs at the preset's own seed


def defined(package: Path) -> dict:
    """(file, first line) -> ``module.qualified.name`` of every function and method
    under ``package``.  The first line is a code object's ``co_firstlineno``: that
    of the first decorator where there is one."""
    out = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names, up = [node.name], parent.get(node)
            while up is not None:
                if isinstance(up, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(up.name)
                up = parent.get(up)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[(str(path), first)] = ".".join([path.stem] + names[::-1])
    return out


def preset_commands(root: str) -> list:
    """The ``cli.main`` argument lists of every preset run into ``root``, then ``report``."""
    from spde_manifold.config import preset_names

    argvs = []
    for name in preset_names():
        for verb in ("check", "simulate"):
            for seed in SEEDS:
                argv = [verb, "--config", name, "--out", root]
                argvs.append(argv + ([] if seed is None else ["--seed", str(seed)]))
    return argvs + [["report", "--out", root]]


def unreached(commands=preset_commands) -> list:
    """Sorted names of the package's functions that no call entered while
    ``cli.main`` ran each argument list ``commands(root)`` gives for a temporary
    root.  Calls at import time count where this first imports the package."""
    package = Path(importlib.util.find_spec("spde_manifold").origin).parent
    names = defined(package)
    files = {file for file, _ in names}
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        from spde_manifold import cli

        with tempfile.TemporaryDirectory() as root:
            for argv in commands(root):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
    finally:
        sys.setprofile(previous)
    return sorted(name for key, name in names.items() if key not in entered)


if __name__ == "__main__":
    print("\n".join(unreached()))
