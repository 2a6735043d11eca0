"""Layout of the package: every public name in `src/` serves a run.

A public top-level function or class of `src/quasicrack` must be
referenced from some other top-level statement in `src/`, `scripts/` or
`perfbench/`, and every public method, property and dataclass field of a
public class must be read there as an attribute. A defaulted parameter of a
public function or method must be set by some call there; one that no call
sets belongs in the body as a constant. Verification-only code lives in
`tests/` instead. Every name that a module of `tests/`, `src/` or
`scripts/` imports is used there.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasicrack"
#: validated by the acceptance suite as part of the product; the sweep's
#: refinement study is to call it
ALLOWED_UNREFERENCED = {"hausdorff_distance"}
_SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _referenced(tree: ast.AST) -> set[str]:
    """Names a tree refers to: `Name`s, `Attribute` names and `ImportFrom` entries."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_public_names() -> list[str]:
    """`module.name` of every public top-level definition no other code refers to."""
    refs = Counter()  # per name, the top-level statements that refer to it
    public = []  # (module, name, 1 if its own definition refers to it, else 0)
    for path in _SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            names = _referenced(node)
            refs.update(names)
            if (
                path.parent == PACKAGE
                and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            ):
                public.append((path.stem, node.name, int(node.name in names)))
    # no statement but the name's own definition refers to it
    return [
        f"{module}.{name}"
        for module, name, own in public
        if refs[name] == own and name not in ALLOWED_UNREFERENCED
    ]


def test_every_public_src_name_has_a_caller():
    found = unreferenced_public_names()
    assert not found, f"public names in src/ with no caller in src/, scripts/ or perfbench/: {found}"


def unread_public_members() -> list[str]:
    """`Class.member` of every public method, property or dataclass field
    of a public `src/` class that no code reads as an attribute.

    A read is an `ast.Attribute` in `Load` context with the member's name,
    on any object; constructor keywords are not reads.
    """
    read = set()
    members = []
    for path in _SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append((cls.name, name))
    return [f"{cls}.{name}" for cls, name in members if name not in read]


def test_every_public_src_member_is_read():
    found = unread_public_members()
    assert not found, f"public members in src/ never read in src/, scripts/ or perfbench/: {found}"


#: defaulted parameters that no call in src/, scripts/ or perfbench/ sets
ALLOWED_UNSET = {
    # a datum config sets these through `cases.DATUM_BUILDERS`
    "cases.mode3_datum": ["tip"],
    "cases.linear_datum": ["cx", "cy"],
    # scripts/run_benchmark.py calls it under an alias
    "cli.main": ["argv"],
    # validated by the acceptance suite; the sweep's refinement study is to call it
    "geometry.hausdorff_distance": ["domain_diameter", "tol"],
    # acceptance criterion 6 halves them on the refined mesh
    "sif.griffith_audit": ["tol_kappa", "tol_growth"],
}


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter of `fn` with a
    default; `bound` leaves out the first parameter (self or cls)."""
    args = fn.args
    pos = (args.posonlyargs + args.args)[int(bound):]
    out = [(a.arg, i) for i, a in enumerate(pos) if i >= len(pos) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unset_defaulted_parameters() -> dict[str, list[str]]:
    """Per public `src/` function or method (`module.name` or
    `module.Class.name`), its defaulted parameters that no call of that
    name sets.

    A call sets a parameter when it passes it by keyword or by position,
    or passes a `*` or `**` splat.
    """
    defs = []  # (qualified name, name, defaulted parameters)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{path.stem}.{node.name}", node.name, _defaulted(node, False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list
                        )
                        qual = f"{path.stem}.{node.name}.{item.name}"
                        defs.append((qual, item.name, _defaulted(item, not static)))
    calls = {}  # called name -> its calls
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, param: str, index: int | None) -> bool:
        return (
            any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and index < len(call.args))
        )

    found = {}
    for qual, name, params in defs:
        unset = [p for p, i in params if not any(sets(c, p, i) for c in calls.get(name, []))]
        if unset:
            found[qual] = unset
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    found = unset_defaulted_parameters()
    assert found == ALLOWED_UNSET, (
        "defaulted parameters in src/ that no call in src/, scripts/ or perfbench/ "
        f"sets (make each a constant, or allowlist it with its reason): {found}"
    )


def unused_imports() -> list[str]:
    """`module:name` of every name a module of `tests/`, `src/quasicrack/` or
    `scripts/` imports but never loads; a name listed in the module's
    `__all__` counts as used (a re-export)."""
    out = []
    for path in [
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
    ]:
        tree = ast.parse(path.read_text(), str(path))
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        loaded.update(
            item.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for item in ast.walk(node.value)
            if isinstance(item, ast.Constant)
        )
        out.extend(f"{path.stem}:{name}" for name in sorted(bound - loaded))
    return out


def test_every_test_import_is_used():
    found = unused_imports()
    assert not found, f"names imported but never used in tests/, src/ or scripts/: {found}"
