"""The names other code looks up on geokit's modules exist, every private
top-level name of geokit has a reader, no statement of geokit follows a
``return``, ``raise``, ``continue`` or ``break`` in its block, every fast
path kept beside a general one names the benchmark metric it serves, LAPACK
is reached through ``geokit.linalg`` alone, and the modules import each
other in layers.

perfbench's tracer wraps its table of functions with ``getattr`` and no
default, so a library function deleted from under that table makes
``perfbench/run.py --trace 1`` crash; this test reads the tables (it edits
nothing) and fails first.
"""

import ast
import importlib
import io
import json
import re
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geokit"
MODULES = ("linalg", "sysmodel", "pencils", "geometry", "assignment", "verify")


@pytest.fixture(scope="module")
def perfbench_tables():
    sys.path.insert(0, str(ROOT))
    try:
        harness = importlib.import_module("perfbench.harness")
        tracer = importlib.import_module("perfbench.tracer")
    finally:
        sys.path.remove(str(ROOT))
    return {"tracer.WRAPPED": tracer.WRAPPED, "harness.LAYER_FUNCTIONS": harness.LAYER_FUNCTIONS}


@pytest.mark.parametrize("table", ["tracer.WRAPPED", "harness.LAYER_FUNCTIONS"])
def test_perfbench_names_resolve(perfbench_tables, table):
    missing = [f"{module}.{fn}" for module, fns in perfbench_tables[table].items()
               for fn in fns if not hasattr(importlib.import_module(f"geokit.{module}"), fn)]
    assert not missing, f"{table} names functions geokit no longer has: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"geokit.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"geokit.{name}.__all__ names {missing}"


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``file:name`` of each private top-level name that ``sources`` (file
    name to source) define, by a ``def``, a ``class`` or an assignment, and
    reference nowhere but in the top-level statement that defines it: a
    reference is a name that is read, an attribute or an imported name, so
    a docstring that mentions the name is none.  A private name has a
    leading underscore and is no dunder."""
    defined, referenced = [], {}
    for file, source in sources.items():
        for index, top in enumerate(ast.parse(source).body):
            site = (file, index)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            else:
                names = []
            defined += [(site, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.split(".")[-1]
                else:
                    continue
                referenced.setdefault(name, set()).add(site)
    return [f"{file}:{name}" for (file, index), name in defined
            if not referenced.get(name, set()) - {(file, index)}]


class TestEveryPrivateNameIsRead:
    """A private helper whose last caller is gone is dead code: no test of
    the public surface finds it."""

    def test_every_private_top_level_name_is_referenced(self):
        sources = {f.name: f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))}
        assert sources
        assert _unreferenced_private_names(sources) == []

    def test_scan_finds_unreferenced_private_names(self):
        sources = {
            "a.py": "\n".join([
                '"""Names _in_docstring, which no code reads."""',
                "_READ = 1",
                "_unread, _pair = 2, 3",
                "__all__ = []",
                "def _recursive(n):",
                "    return _recursive(n - 1)",
                "def _called():",
                '    """Calls _in_docstring."""',
                "    return _READ + _pair",
                "class _Imported:",
                "    pass",
                "def _read_as_attribute():",
                "    pass",
                "def _in_docstring():",
                "    pass",
                "public = _called()",
                "public = _unread = 4",
            ]),
            "b.py": "\n".join([
                "from a import _Imported",
                "import a",
                "a._read_as_attribute()",
            ]),
        }
        assert _unreferenced_private_names(sources) == [
            "a.py:_unread", "a.py:_recursive", "a.py:_in_docstring", "a.py:_unread"]


def _unreachable_statements(source: str) -> list[int]:
    """The line of each statement of ``source`` that follows a ``return``,
    ``raise``, ``continue`` or ``break`` in the same block, the first such
    statement of each block, in the order of the blocks' walk."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for _, block in ast.iter_fields(node):
            if not (isinstance(block, list) and block and isinstance(block[0], ast.stmt)):
                continue
            ends = [i for i, stmt in enumerate(block[:-1])
                    if isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break))]
            if ends:
                found.append(block[ends[0] + 1].lineno)
    return found


class TestNoUnreachableCode:
    """A statement after a ``return``, ``raise``, ``continue`` or ``break``
    in its block never runs, and may read names that exist nowhere."""

    def test_no_statement_follows_a_jump(self):
        files = sorted(SRC.glob("*.py"))
        assert files
        found = [f"{f.name}:{line}" for f in files
                 for line in _unreachable_statements(f.read_text(encoding="utf-8"))]
        assert found == []

    def test_scan_finds_unreachable_statements(self):
        source = "\n".join([
            "def f(x):",
            "    if x:",
            "        return 1",
            "        x = 2",
            "    else:",
            "        raise ValueError(x)",
            "    for y in x:",
            "        if y:",
            "            continue",
            "        break",
            "        y += 1",
            "    try:",
            "        return x",
            "    finally:",
            "        pass",
            "    return x",
            "    return _undefined",
            "    x = 3",
            "while True:",
            "    break",
            "else:",
            "    raise",
            "    pass",
            "def g():",
            "    return",
        ])
        assert _unreachable_statements(source) == [17, 23, 4, 11]


def _keeper_comments(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of each comment of ``source`` that says ``kept for``;
    a string that says it is no comment."""
    return [(token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT and "kept for" in token.string]


_KEEPER = re.compile(r"# kept for (?P<workload>[\w-]+)'s (?P<metrics>\w+(?: and \w+)*)(?::|$)")


def _keeper_fault(comment: str, benchmark: dict) -> str | None:
    """What is wrong with a ``kept for`` comment, by ``benchmark`` (the
    parsed ``BENCHMARK.json``), or None: it must read ``# kept for
    <workload>'s <metric>[ and <metric>]``, then a colon or its end, and
    name a workload and end-to-end metrics that the benchmark lists."""
    match = _KEEPER.match(comment)
    if match is None:
        return "not of the form # kept for <workload>'s <metric>[ and <metric>]"
    if match["workload"] not in {w["name"] for w in benchmark["workloads"]}:
        return f"no workload {match['workload']}"
    unknown = set(match["metrics"].split(" and ")) - {m["name"] for m in benchmark["end_to_end"]}
    return f"no end-to-end metric {sorted(unknown)}" if unknown else None


class TestEveryKeeperNamesItsMetric:
    """A fast path kept beside a general one says which workload's
    end-to-end metric keeps it, so the next change can measure it again."""

    def test_every_keeper_names_a_benchmark_metric(self):
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        comments = [(f.name, line, text) for f in sorted(SRC.glob("*.py"))
                    for line, text in _keeper_comments(f.read_text(encoding="utf-8"))]
        assert comments
        faults = [(f"{name}:{line}", fault) for name, line, text in comments
                  if (fault := _keeper_fault(text, benchmark)) is not None]
        assert faults == []

    def test_scan_rejects_what_the_benchmark_does_not_list(self):
        benchmark = {"workloads": [{"name": "ops-large"}, {"name": "cli-reports"}],
                     "end_to_end": [{"name": "wall_s"}, {"name": "latency_tail_ms"}]}
        source = "\n".join([
            "x = 1  # kept for ops-large's wall_s: the real requests",
            "# kept for cli-reports's wall_s and latency_tail_ms",
            "# kept for ops-large's latency_tail_s: a misspelled metric",
            "# kept for ops-larg's wall_s: a misspelled workload",
            "# kept for ops-large's wall_s and peak_rss_mb: one metric unlisted",
            "# kept for speed",
            "# kept for ops-large's wall_seconds",
            "y = '# kept for nothing'",
        ])
        comments = _keeper_comments(source)
        assert [line for line, _ in comments] == [1, 2, 3, 4, 5, 6, 7]
        assert [_keeper_fault(text, benchmark) for _, text in comments] == [
            None, None, "no end-to-end metric ['latency_tail_s']", "no workload ops-larg",
            "no end-to-end metric ['peak_rss_mb']",
            "not of the form # kept for <workload>'s <metric>[ and <metric>]",
            "no end-to-end metric ['wall_seconds']"]


def _geokit_imports(source: str, modules: set[str]) -> list[tuple[str, str]]:
    """``(module, site)`` for each geokit module in ``modules`` that
    ``source``, a module of the package, imports, in source order:
    ``from . import geometry``, ``from .geometry import vstar``,
    ``import geokit.geometry`` and ``from geokit import geometry`` all import
    ``geometry``, and a name imported from the package that is not a module
    imports ``__init__``.  ``site`` is the function the import runs in,
    ``"<module>"`` for an import at the top level."""
    found = []

    def visit(node, site):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            site = node.name
        if isinstance(node, ast.Import):
            found.extend((alias.name.split(".")[1], site) for alias in node.names
                         if alias.name.startswith("geokit."))
        elif isinstance(node, ast.ImportFrom):
            path = ".".join(filter(None, ["geokit" if node.level else "", node.module]))
            if path == "geokit":  # the package's modules, or its own names
                found.extend((alias.name if alias.name in modules else "__init__", site)
                             for alias in node.names)
            elif path.startswith("geokit."):
                found.append((path.split(".")[1], site))
        for child in ast.iter_child_nodes(node):
            visit(child, site)

    visit(ast.parse(source), "<module>")
    return found


def _package_imports() -> dict[str, list[tuple[str, str]]]:
    files = sorted(SRC.glob("*.py"))
    assert files
    modules = {f.stem for f in files}
    return {f.stem: _geokit_imports(f.read_text(encoding="utf-8"), modules) for f in files}


class TestImportLayers:
    """``linalg`` rests on ``errors`` alone and ``sysmodel``, the data model,
    on ``errors`` and ``linalg``; the algorithms import them, never the
    other way round.  One import is deferred to call time, where
    ``assignment`` imports ``geometry`` and ``geometry.friend_of`` places a
    spectrum with ``assignment``'s synthesis."""

    @pytest.mark.parametrize("name, allowed", [("linalg", {"errors"}),
                                               ("sysmodel", {"errors", "linalg"})])
    def test_data_layers_import_only_below_them(self, name, allowed):
        imported = {module for module, _ in _package_imports()[name]}
        assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"

    def test_one_import_is_deferred(self):
        deferred = [(name, module, site) for name, found in _package_imports().items()
                    for module, site in found if site != "<module>"]
        assert deferred == [("geometry", "assignment", "friend_of")]

    def test_scan_finds_geokit_imports(self):
        source = "\n".join([
            "import numpy as np",
            "import geokit.pencils",
            "from . import errors, linalg",
            "from .sysmodel import SystemQuad",
            "from geokit import GenSpec, verify",
            "from geokit.cli import main",
            "from numpy.linalg import svd",
            "def random_system(spec):",
            "    from . import geometry",
            "    def inner():",
            "        import geokit.assignment",
            "    return geometry",
            "class Frame:",
            "    def build(self):",
            "        from .pencils import rosenbrock_kernel",
        ])
        modules = {"errors", "linalg", "sysmodel", "verify", "geometry", "pencils", "assignment", "cli"}
        assert _geokit_imports(source, modules) == [
            ("pencils", "<module>"), ("errors", "<module>"), ("linalg", "<module>"),
            ("sysmodel", "<module>"), ("__init__", "<module>"), ("verify", "<module>"),
            ("cli", "<module>"), ("geometry", "random_system"), ("assignment", "inner"),
            ("pencils", "build")]


def _lapack_uses(source: str) -> list[int]:
    """Lines that import ``scipy.linalg.lapack`` or ``scipy.linalg.blas``
    (or from them), read a ``lapack`` or ``blas`` attribute or name
    ``get_lapack_funcs`` or ``get_blas_funcs``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [f"scipy.linalg.{node.attr}" if node.attr in ("lapack", "blas")
                     else node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(name.split(".")[-1] in ("get_lapack_funcs", "get_blas_funcs")
               or "scipy.linalg.lapack" in name or "scipy.linalg.blas" in name
               for name in names):
            lines.append(node.lineno)
    return sorted(set(lines))


def _lookups(node) -> bool:
    """Whether ``node`` reads an entry by a string key, as ``lapack["potrf"]``
    does; ``_LAPACK["f"]["syrk"] = ...`` binds one and reads none."""
    return (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str))


def _key_sites(source: str) -> dict[str, list[str]]:
    """Each string key that ``source`` looks up, as in ``lapack["potrf"]``,
    with the top-level definition of each lookup, in source order
    (``"<module>"`` outside any)."""
    sites: dict[str, list[str]] = {}
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if _lookups(node):
                sites.setdefault(node.slice.value, []).append(name)
    return sites


def _kind_lookups(source: str) -> set[tuple[str, str]]:
    """Each ``(kind, key)`` that ``source`` looks up by a string key:
    ``("f", "syrk")`` for ``_LAPACK["f"]["syrk"]``, whose table is itself
    looked up by a string, and ``("*", key)`` for any other, as for
    ``_LAPACK[kind]["potrf"]`` or ``lapack["geqrf"]``, whose dtype kind is
    read at run time."""
    return {(node.value.slice.value if _lookups(node.value) else "*", node.slice.value)
            for node in ast.walk(ast.parse(source)) if _lookups(node)}


class TestOneLapackTable:
    """Every LAPACK and BLAS routine is bound in ``linalg._LAPACK`` and called
    there, and every routine bound there has a caller."""

    def test_every_bound_routine_is_called(self):
        # a binding that outlives its caller is dead code in the table: a
        # routine of one dtype whose every lookup names the other is one
        from geokit import linalg
        looked_up = _kind_lookups((SRC / "linalg.py").read_text(encoding="utf-8"))
        dead = [(kind, routine) for kind, routines in linalg._LAPACK.items()
                for routine in routines
                if (kind, routine) not in looked_up and ("*", routine) not in looked_up]
        assert dead == []

    def test_scan_pairs_each_lookup_with_its_dtype_kind(self):
        source = "\n".join([
            'G = _LAPACK["f"]["syrk"](1.0, M)',
            'potrf = _LAPACK[H.dtype.kind]["potrf"]',
            'lapack = _LAPACK[kind]',
            'qr = lapack["geqp3"](Y)',
            'x = M[0], table[key], names["c"][0]',
            '_LAPACK["c"]["herk"], = get_blas_funcs(("herk",), dtype=complex)',
        ])
        assert _kind_lookups(source) == {("*", "f"), ("f", "syrk"), ("*", "potrf"),
                                         ("*", "geqp3"), ("*", "c")}

    def test_scan_finds_key_lookups(self):
        source = "\n".join([
            'names = ("getrf", "potrf")',
            'R = lapack["potrf"](H)[0]',
            'geqrf = _LAPACK[kind]["geqrf"]',
            'x = M[0], table[key]',
        ])
        assert set(_key_sites(source)) == {"potrf", "geqrf"}

    def test_one_gram_product_and_one_cholesky(self):
        # linalg's one full-rank proof: the pencil's Gram coefficients are
        # its only syrk, and its per-value Cholesky its only potrf
        sites = _key_sites((SRC / "linalg.py").read_text(encoding="utf-8"))
        assert sites["syrk"] == ["_pencil_gram"]
        assert sites["potrf"] == ["_pencil_proof"]

    def test_scan_finds_key_sites(self):
        source = "\n".join([
            'potrf = _LAPACK["f"]["potrf"]',
            "def gram(M):",
            '    return _LAPACK["f"]["syrk"](1.0, M)',
            "def proof(gram):",
            "    def proves(lam):",
            '        return _LAPACK[kind]["potrf"](H)',
            "    return proves",
            "class Table:",
            '    syrk = lapack["syrk"]',
            'x = table[key], names["syrk"[0]]',
            '_LAPACK["f"]["syrk"], = get_blas_funcs(("syrk",), dtype=float)',
        ])
        assert _key_sites(source) == {"f": ["<module>", "gram", "<module>"],
                                      "potrf": ["<module>", "proof"],
                                      "syrk": ["gram", "Table"]}

    def test_only_linalg_reaches_lapack(self):
        files = sorted(SRC.glob("*.py"))
        assert files
        users = {f.name for f in files if _lapack_uses(f.read_text(encoding="utf-8"))}
        assert users == {"linalg.py"}

    def test_scan_finds_lapack_uses(self):
        source = "\n".join([
            "import numpy as np",
            "from scipy.linalg.lapack import dgeqp3, dgeqrf",
            "import scipy.linalg.lapack",
            "from scipy.linalg import get_lapack_funcs",
            "f = scipy.linalg.get_lapack_funcs(('geqrf',), dtype=float)",
            "from scipy.linalg import qr, lapack",
            "from scipy import linalg",
            "q = linalg.qr(M)",
            "r = linalg.lapack.dgeqrf(M)",
            "lapack = {}",
            "from scipy.linalg.blas import dsyrk",
            "import scipy.linalg.blas",
            "from scipy.linalg import get_blas_funcs",
            "g = scipy.linalg.get_blas_funcs(('syrk',), dtype=float)",
            "from scipy.linalg import blas",
            "c = linalg.blas.dsyrk(1.0, M)",
            "blas = {}",
        ])
        assert _lapack_uses(source) == [2, 3, 4, 5, 6, 9, 11, 12, 13, 14, 15, 16]
