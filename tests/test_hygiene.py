"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convexkit"
# Where a library definition may be read: the package and its callers.
READERS = (SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(path: Path) -> list:
    """Names a module imports but never reads, as "file:line name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert [hit for path in modules for hit in unused_imports(path)] == []


def _read_names(node, own=None) -> set:
    """Names ``node`` reads (loads, attribute lookups, imports), leaving out
    ``own``, the name of the definition being walked."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names - {own}


def _top_level_reads(node) -> set:
    """Names a top-level node reads outside its own definition; a method's
    reads of its own name do not count either."""
    if not isinstance(node, ast.ClassDef):
        return _read_names(node, node.name if isinstance(node, DEFINITIONS) else None)
    names = set()
    for part in [*node.bases, *node.keywords, *node.decorator_list, *node.body]:
        names |= _read_names(part, part.name if isinstance(part, DEFINITIONS) else None)
    return names - {node.name}


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of those
    classes, as (node, name) pairs."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield item, f"{node.name}.{item.name}"


def _names_read_in(folders, skip=()) -> set:
    """Names the top-level nodes of the modules under ``folders`` read,
    leaving out the files in ``skip``."""
    read = set()
    for path in sorted(p for folder in folders for p in folder.rglob("*.py")):
        if path not in skip:
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                read |= _top_level_reads(node)
    return read


def dead_definitions() -> list:
    """Top-level functions and classes of the package, and methods of its
    classes, that nothing reads outside their own definition, as
    "file:line name"."""
    read = _names_read_in(READERS)
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for node, name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if node.name not in read
    ]


def test_no_dead_definitions():
    assert dead_definitions() == []


def unread_exports() -> list:
    """Names ``convexkit/__init__.py`` re-exports that nothing under
    ``READERS`` reads outside ``__init__`` and outside their own
    definition."""
    init = SRC / "__init__.py"
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read = _names_read_in(READERS, skip={init})
    return [name for name in exported if name not in read]


def test_every_export_is_read():
    assert unread_exports() == []


def definitions_only_tests_read() -> list:
    """Public top-level functions and classes of the package that only
    tests read, as "file:line name".  ``__init__`` reads every name it
    exports, so an export counts as read.  Methods are left out: a class's
    methods may serve only its tests, as ``SurfaceArea``'s do."""
    read = _names_read_in(folder for folder in READERS if folder.name != "tests")
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_no_test_only_definitions():
    assert definitions_only_tests_read() == []


def _decorator_names(node) -> set:
    """The names a definition is decorated with, called or not, with any
    module prefix dropped: ``functools.lru_cache(8)`` is "lru_cache"."""
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def dataclass_fields() -> list:
    """The fields of the package's dataclasses, as (file, line, class, field)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node):
                found += [
                    (path.name, item.lineno, node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return found


def unread_dataclass_fields() -> list:
    """Dataclass fields of the package that no module reads, as
    "file:line Class.field".  A field is read where some module under
    ``READERS`` loads it as an attribute, or names it in a string constant,
    as ``getattr`` would take it."""
    read = set()
    for path in sorted(p for folder in READERS for p in folder.rglob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.add(sub.value)
    return [
        f"{file}:{line} {owner}.{name}"
        for file, line, owner, name in dataclass_fields()
        if name not in read
    ]


def test_no_unread_dataclass_fields():
    assert len(dataclass_fields()) > 0
    assert unread_dataclass_fields() == []


def one_field_records() -> list:
    """Package dataclasses with exactly one field and no methods or
    properties, as "file:line Class": such a record only wraps its value,
    which callers can take as it is."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                methods = [item for item in node.body if isinstance(item, DEFINITIONS)]
                if len(fields) == 1 and not methods:
                    hits.append(f"{path.name}:{node.lineno} {node.name}")
    return hits


def test_no_one_field_records():
    assert one_field_records() == []


def io_importers() -> list:
    """Package modules other than ``cli`` that import ``convexkit.io``, as
    "file:line".  Body files and reports are the CLI's business; the
    library takes bodies and returns values."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = {alias.name for alias in node.names}
                if module in (".io", "convexkit.io") or module in (".", "convexkit") and "io" in names:
                    hits.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                if any(alias.name == "convexkit.io" for alias in node.names):
                    hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_only_cli_imports_io():
    assert io_importers() == []


def stray_asserts() -> list:
    """``assert`` statements in the package, as "file:line".  ``python -O``
    strips them, so invariant checks raise ``InvariantError`` instead."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += [f"{path.name}:{sub.lineno}" for sub in ast.walk(tree) if isinstance(sub, ast.Assert)]
    return hits


def test_no_asserts_in_package():
    assert stray_asserts() == []


def function_level_imports() -> list:
    """``import`` statements inside package functions, as "file:line".  No
    module of the package needs one to break an import cycle."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits += [
                    f"{path.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                ]
    return sorted(set(hits))


def test_no_function_level_imports():
    assert function_level_imports() == []


def module_caches() -> set:
    """Top-level package functions decorated with ``functools.cache`` or
    ``lru_cache``, as "module.function": the state shared between calls."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _decorator_names(node) & {"cache", "lru_cache"}:
                found.add(f"{path.stem}.{node.name}")
    return found


def test_module_caches_are_the_documented_three():
    # README lists each; a new one must be added there and here.
    assert module_caches() == {
        "volumes._minkowski_sum",
        "volumes.volume_polynomial",
        "reconstruction._probe",
        "cli.build_parser",
    }


# Fractions exist only at the boundary: ``convex_hull`` lifts points that come
# from outside the library (body files, constructor arguments, probe
# directions), and ``Polytope.vertices`` renders rows as points for output.
# Library code forms rows and hands them to ``_hull_with_boundary``.
HULL_CALLERS = {"bodies", "io", "reconstruction"}
VERTEX_READERS = {"io.body_to_json", "geometry.polygon_cycle", "steiner._contains"}


def _functions(tree):
    """Top-level functions and the methods of top-level classes, as
    (node, name) pairs."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, f"{node.name}.{item.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name


def boundary_crossings() -> list:
    """Package functions that call ``convex_hull`` outside ``HULL_CALLERS``
    or load ``.vertices`` outside ``VERTEX_READERS``, as "module.function
    name".  ``args.vertices`` is the ``random-body`` option, not a body's."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node, name in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{name}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    callee = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                    if callee == "convex_hull" and path.stem not in HULL_CALLERS:
                        hits.append(f"{where} convex_hull")
                elif (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "vertices"
                    and isinstance(sub.ctx, ast.Load)
                    and getattr(sub.value, "id", None) != "args"
                    and where not in VERTEX_READERS
                ):
                    hits.append(f"{where} .vertices")
    return sorted(set(hits))


def test_library_hulls_take_rows():
    assert boundary_crossings() == []


def lower_dimensional_raisers() -> list:
    """Package functions that raise ``LowerDimensionalError``, as
    "module.function".  One rule refuses flat bodies, with one message."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node, name in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and sub.exc is not None:
                    exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                    if getattr(exc, "id", getattr(exc, "attr", None)) == "LowerDimensionalError":
                        hits.append(f"{path.stem}.{name}")
    return hits


def test_only_one_rule_raises_lower_dimensional_error():
    assert lower_dimensional_raisers() == ["geometry._check_full_dimensional"]
