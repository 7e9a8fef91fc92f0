"""No dead code at the top level: every function and class defined in
src/cubesum is used by the program, is public (in cubesum.__all__), or is a
name the benchmark's tracer wraps (perfbench/tracer.py SPANNED, AGGREGATED).
A use is a name or an attribute in some module's code; an import alone is
not a use.  And no private plumbing through the public surface: no public
function takes a parameter whose name starts with an underscore, no code
reads a memo's __wrapped__, and every lru_cache has an integer maxsize.
Every imported name is read in the module that imports it."""

import ast
from pathlib import Path

import cubesum

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cubesum"


def _traced() -> set[tuple[str, str]]:
    """The (module, name) pairs of the tracer's SPANNED and AGGREGATED."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    names = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id in ("SPANNED", "AGGREGATED")
                     for t in node.targets)]
    assert len(names) == 2
    return {tuple(dotted.split(".")) for group in names for dotted in group}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _dead() -> list[str]:
    trees = _trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    kept = used | set(cubesum.__all__)
    traced = _traced()
    return [f"{module}.py:{node.lineno}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in kept and (module, node.name) not in traced]


def test_every_top_level_definition_is_used():
    assert _dead() == []


def _private_parameters() -> list[str]:
    """Each parameter named _x of a top-level function in cubesum.__all__."""
    return [f"{module}.py:{node.lineno}: {node.name}({arg.arg})"
            for module, tree in _trees().items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in cubesum.__all__
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                        node.args.vararg, node.args.kwarg)
            if arg is not None and arg.arg.startswith("_")]


def test_no_public_function_takes_a_private_parameter():
    assert _private_parameters() == []


def _memo_bypasses() -> list[str]:
    """Each read of __wrapped__ in src/cubesum: a call that goes round its
    own memo is a second path to the same value."""
    return [f"{module}.py:{node.lineno}"
            for module, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__wrapped__"
            or isinstance(node, ast.Constant) and node.value == "__wrapped__"]


def test_no_memo_is_bypassed():
    assert _memo_bypasses() == []


def _unbounded_memos() -> list[str]:
    """Each lru_cache in src/cubesum without an integer maxsize, so that no
    budget can grow a memo without bound."""
    out = []
    for module, tree in _trees().items():
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None) != "lru_cache":
                continue
            call = calls.get(id(node))
            sizes = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")
                     ] if call else []
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                out.append(f"{module}.py:{node.lineno}")
    return out


def test_every_memo_is_bounded():
    assert _unbounded_memos() == []


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names read by the quoted annotations in tree."""
    annotations = [node.returns if isinstance(node, ast.FunctionDef) else node.annotation
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.arg, ast.AnnAssign))]
    quoted = [node.value for annotation in annotations if annotation is not None
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for text in quoted for node in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(node, ast.Name)}


def _unused_imports() -> list[str]:
    """Each name a module of src/cubesum other than __init__ imports and
    never reads as a name, counting quoted annotations."""
    out = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= _annotation_names(tree)
        imported = [(node.lineno, alias.asname or alias.name.partition(".")[0])
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names]
        out += [f"{module}.py:{line}: {name}" for line, name in imported if name not in read]
    return out


def test_every_import_is_used():
    assert _unused_imports() == []
