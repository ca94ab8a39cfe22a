"""The public surface of src/hbl: what `hbl` runs, and the Y(z) layer.

An ast walk from hbl.cli.main follows every name a reached definition
mentions: module-level names of its own module, names imported from
another hbl module, and attributes of an imported hbl module.  A reached
class brings its whole body; statements that run on import (other than
definitions) are roots too.
"""

import ast
from pathlib import Path

import hbl

SRC = Path(hbl.__file__).parent

#: public names that no command reaches: the RH matrix Y(z), the Lax ODE
#: check on its exact derivative, and the Faddeeva function it is summed
#: from (acceptance criteria 4 and 11 check them)
KEPT = {("kernel", "YEvaluator"), ("rh", "verify_lax_ode"), ("numerics", "faddeeva")}


def _modules() -> dict:
    """{module: (definitions, imports, import-time statements)}.

    Definitions map each name bound at module level by def, class or
    assignment to its statement.  Imports map each name bound by a relative
    import to (module, name), or to (module, None) for a module.
    """
    stems = {path.stem for path in SRC.glob("*.py")}
    out = {}
    for stem in stems:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        defs, imports, roots = {}, {}, []
        for node in tree.body:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            targets = node.targets if isinstance(node, ast.Assign) else targets
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif targets and all(isinstance(t, ast.Name) for t in targets):
                defs.update((t.id, node) for t in targets)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        target = (node.module, alias.name)
                    elif alias.name in stems:
                        target = (alias.name, None)
                    else:
                        target = ("__init__", alias.name)
                    imports[alias.asname or alias.name] = target
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ):
                roots.append(node)
        out[stem] = (defs, imports, roots)
    return out


def _reached(modules: dict, names) -> set:
    """Every (module, name) definition reached from ``names`` and from the
    import-time statements of every module."""
    seen = set()
    todo = [(mod, None, node) for mod, (_, _, roots) in modules.items() for node in roots]
    todo += [(mod, name, None) for mod, name in names]
    while todo:
        mod, name, node = todo.pop()
        defs, imports, _ = modules[mod]
        if node is None:
            if name in imports and imports[name][1]:
                todo.append((*imports[name], None))
            if (mod, name) in seen or name not in defs:
                continue
            seen.add((mod, name))
            node = defs[name]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                todo.append((mod, sub.id, None))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports.get(sub.value.id)
                if target and target[1] is None:
                    todo.append((target[0], sub.attr, None))
    return seen


def test_every_public_name_is_reached_from_the_cli():
    modules = _modules()
    public = {
        (mod, name)
        for mod, (defs, _, _) in modules.items()
        for name in defs
        if not name.startswith("_")
    }
    from_main = _reached(modules, [("cli", "main")])
    assert sorted(KEPT & from_main) == []  # a command reaches it: no need to keep
    assert sorted(public - _reached(modules, [("cli", "main"), *KEPT])) == []
    assert KEPT <= public
