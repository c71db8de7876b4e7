"""Which package module may import what, read from the sources with ``ast``.

Every file the package writes or parses (frame CSV, report JSON, sim config,
simulation result files) is formatted in ``dataio``, so it is the one module
that imports ``json`` or ``csv``.  A second writer elsewhere would show up
here as a new importer.

The population MSE ``[sum_u sigma2 + (sum_u a)^2 E(theta_hat - theta)^2] / N^2``
is composed in one function of ``risk``, so the unsampled sums it reads are
read there and in ``frame``, which computes them, and nowhere else.

Every number a caller passes is read by one rule in ``frame``, which turns the
``OverflowError`` of an int too large for a float into a typed error; no other
module catches it.

The estimator form is chosen in one table, ``estimators.FORMS``, so the form
names are written there and in the CLI's ``--scaling`` name map, and in no
other code of the package.  Likewise each contamination kind is one row of
``simulate.CONTAMINATION_KINDS``, so the kind names are written only there.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "robust_fps"


def _imported_roots(path: pathlib.Path) -> set[str]:
    """The top-level names of every absolute module that ``path`` imports, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_dataio_imports_json_or_csv():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "dataio.py" in modules
    importers = {p.stem: sorted(_imported_roots(p) & {"json", "csv"}) for p in modules}
    assert {stem: found for stem, found in importers.items() if found} == {"dataio": ["csv", "json"]}


def test_the_scan_sees_every_form_of_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os, json as j\ndef f():\n    from csv import writer\n"
                   "from . import dataio\nimport json.decoder\n")
    assert _imported_roots(src) == {"os", "json", "csv"}


_UNSAMPLED_SUMS = {"sum_u_sigma2", "sum_u_a"}


def _functions_reading(path: pathlib.Path, names: set[str]) -> list[str]:
    """For each read of an attribute or name in ``names``, its innermost function or ``<module>``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        read = (isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names)
        if read and isinstance(node.ctx, ast.Load):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_the_unsampled_sums_are_read_in_one_risk_function():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("frame", "risk"):
            assert _functions_reading(path, _UNSAMPLED_SUMS) == [], path.stem
    readers = [set(_functions_reading(PACKAGE / "risk.py", {name})) for name in sorted(_UNSAMPLED_SUMS)]
    assert len(readers[0]) == 1 and readers[0] == readers[1]


def test_the_read_scan_sees_attributes_names_and_their_function(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(t):\n    return t.sum_u_a * 2\nx = sum_u_sigma2\nsum_u_a = 1\n"
                   "class C:\n    def g(self):\n        h = lambda: self.sum_u_a\n")
    assert _functions_reading(src, _UNSAMPLED_SUMS) == ["f", "<module>", "<lambda>"]


_OVERFLOW = {"OverflowError", "ArithmeticError"}


def _caught_overflow(path: pathlib.Path) -> list[int]:
    """The line of each ``except`` clause in ``path`` that names ``OverflowError`` or its base."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & _OVERFLOW:
                lines.append(node.lineno)
    return lines


def test_only_frame_catches_overflow_error():
    caught = {p.stem: _caught_overflow(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert caught.pop("frame")
    assert {stem: lines for stem, lines in caught.items() if lines} == {}


def test_the_overflow_scan_sees_every_form_of_except(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("try:\n    pass\nexcept OverflowError:\n    pass\n"
                   "except (ValueError, builtins.ArithmeticError) as e:\n    pass\n"
                   "except ValueError:\n    pass\nexcept:\n    pass\n")
    assert _caught_overflow(src) == [3, 5]


_FORM_NAMES = ("paper_v", "chambers_sigma")


def _form_name_sites(path: pathlib.Path, names: tuple) -> list:
    """Each string constant outside a docstring that holds one of ``names``, by where it is written.

    A constant in a module-level assignment to one name is given as that name,
    any other by its line.  The parts of an f-string are constants too.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    sites = []
    for statement in tree.body:
        owner = None
        if (isinstance(statement, ast.Assign) and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)):
            owner = statement.targets[0].id
        for node in ast.walk(statement):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and any(name in node.value for name in names)):
                sites.append(owner or node.lineno)
    return sites


def test_the_form_names_are_written_only_in_the_table_and_the_cli_map():
    sites = {p.stem: _form_name_sites(p, _FORM_NAMES) for p in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in sites.items() if found} == {
        "cli": ["SCALING_NAMES", "SCALING_NAMES"], "estimators": ["FORMS", "FORMS"]}


def test_the_form_name_scan_skips_docstrings_and_sees_every_constant(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""The paper_v form."""\nFORMS = {"paper_v": 1}\nA = B = "paper_v"\n'
                   'def f(s="chambers_sigma"):\n    """Not chambers_sigma."""\n'
                   '    return f"the {s} paper_v form" if s != "paper_v" else "x"\n'
                   'class C:\n    "chambers_sigma"\n    k: str = "paper_v_old"\n')
    assert _form_name_sites(src, _FORM_NAMES) == ["FORMS", 3, 4, 6, 6, 9]


_KIND_NAMES = ("shift", "variance_inflation", "substitution")


def test_the_kind_names_are_written_only_in_the_table():
    sites = {p.stem: set(_form_name_sites(p, _KIND_NAMES)) for p in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in sites.items() if found} == {
        "simulate": {"CONTAMINATION_KINDS"}}
