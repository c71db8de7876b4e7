"""Which package module may import what, read from the sources with ``ast``.

Every file the package writes or parses (frame CSV, report JSON, sim config,
simulation result files) is formatted in ``dataio``, so it is the one module
that imports ``json`` or ``csv``.  A second writer elsewhere would show up
here as a new importer.
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
