"""Layout of the package: every public name in `src/` serves a run.

A public top-level function or class of `src/quasicrack` must be
referenced from some other top-level statement in `src/`, `scripts/` or
`perfbench/`, and every public method, property and dataclass field of a
public class must be read there as an attribute. Verification-only code
lives in `tests/` instead. Every name that a module of `tests/`, `src/` or
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
