"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tubereach"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads.  Names listed in __all__
    count as read (re-exports); __future__ imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def dead_private_helpers(sources):
    """Top-level private names (one leading underscore) that no module
    of sources, a {module name: source} map, ever reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted({f"{module}:{name}" for module, name in defined
                   if name not in read})


def dead_private_members(sources):
    """Private members of classes (one leading underscore) that no
    module of sources, a {module name: source} map, ever reads: methods
    defined in a class body and attributes assigned as self._name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [node.name for node in cls.body
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
            names += [node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"]
            defined += [(module, cls.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    return sorted({f"{module}:{cls}.{name}" for module, cls, name in defined
                   if name not in read})


def file_writes(source):
    """(line, what) for each thing source does to write files: importing
    csv, open() with a mode that writes, Path.write_text and write_bytes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name == "csv" for alias in node.names) or \
                isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "imports csv"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if isinstance(func, ast.Attribute):  # Path.open(mode)
                modes += node.args[:1]
            if any(not isinstance(m, ast.Constant)
                   or set(str(m.value)) & set("wax+") for m in modes):
                found.append((node.lineno, "open for writing"))
    return sorted(found)


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_writes_files(path):
    assert file_writes(path.read_text()) == []


def test_detector_flags_file_writes():
    source = ("import csv, json\n"
              "from csv import writer\n"
              "from pathlib import Path\n"
              "def f(path, mode):\n"
              "    json.load(open(path))\n"
              "    open(path, 'r').read()\n"
              "    Path(path).open().read()\n"
              "    Path(path).read_text()\n"
              "    open(path, 'w')\n"
              "    open(path, mode='a')\n"
              "    open(path, mode)\n"
              "    Path(path).open('wb')\n"
              "    Path(path).write_text('')\n"
              "    path.write_bytes(b'')\n")
    assert file_writes(source) == [
        (1, "imports csv"), (2, "imports csv"), (9, "open for writing"),
        (10, "open for writing"), (11, "open for writing"),
        (12, "open for writing"), (13, "write_text"), (14, "write_bytes")]
    assert file_writes((PACKAGE / "cli.py").read_text())


def test_modules_found():
    assert {"chance.py", "reachalgo.py", "cli.py"} <= {m.name for m in MODULES}
    assert {"conftest.py", "oracles.py"} <= {m.name for m in TEST_MODULES}


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_spares_reexports():
    source = ("from __future__ import annotations\n"
              "import os, json as js\n"
              "from typing import List, Optional\n"
              "from .x import Kept\n"
              "__all__ = ['Kept']\n"
              "def f(a: Optional[int]) -> None:\n"
              "    return os.path.join('a')\n")
    assert unused_imports(source) == ["List", "js"]


def test_no_dead_private_helpers():
    assert dead_private_helpers(
        {path.name: path.read_text() for path in MODULES}) == []


def test_no_dead_private_members():
    assert dead_private_members(
        {path.name: path.read_text() for path in MODULES}) == []


def test_detector_flags_private_members_no_module_reads():
    sources = {"a.py": ("class Table:\n"
                        "    def __init__(self, rows):\n"
                        "        self._rows = rows\n"
                        "        self._copy, self.public = rows, 1\n"
                        "        self._cache = None\n"
                        "    def _count(self):\n"
                        "        return len(self._rows)\n"
                        "    def _unused(self):\n"
                        "        self._cache = 2\n"
                        "    def __len__(self):\n"
                        "        return self._count()\n"),
               "b.py": ("from .a import Table\n"
                        "_read = Table([])._via_other\n"
                        "class Other:\n"
                        "    def __init__(self):\n"
                        "        self._via_other = 1\n")}
    assert dead_private_members(sources) == [
        "a.py:Table._cache", "a.py:Table._copy", "a.py:Table._unused"]


def test_detector_flags_private_names_no_module_reads():
    sources = {"a.py": ("__all__ = []\n"
                        "_LIMIT = 3\n"
                        "_unused: int = 4\n"
                        "def _dead():\n"
                        "    return _LIMIT\n"
                        "def _via_attribute():\n"
                        "    pass\n"
                        "class _Orphan:\n"
                        "    pass\n"),
               "b.py": ("from . import a\n"
                        "from .a import _Orphan\n"
                        "_stored = a._via_attribute()\n"
                        "_stored = 1\n")}
    assert dead_private_helpers(sources) == [
        "a.py:_Orphan", "a.py:_dead", "a.py:_unused", "b.py:_stored"]


def readers_of(source, name):
    """The top-level definitions of source that read name (None for a
    read outside any): a call, or any other load of the bare name."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else None
        found.update(owner for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id == name
                     and isinstance(node.ctx, ast.Load))
    return found


def test_one_reader_reads_the_config_keys():
    # a key can be accepted only where it is read, so only _fields checks
    # keys and converts values
    source = (PACKAGE / "cli.py").read_text()
    assert readers_of(source, "_value") == {"_fields"}
    assert readers_of(source, "_check_keys") == {"_fields"}


def test_detector_flags_readers():
    source = ("def _value(x):\n"
              "    return x\n"
              "def _fields(node):\n"
              "    return [_value(v) for v in node]\n"
              "FIRST = _value(1)\n"
              "class Reader:\n"
              "    def read(self, v):\n"
              "        return _value(v)\n"
              "def alias():\n"
              "    return map(_value, [])\n"
              "def other(_value):\n"
              "    _value = obj._value(1)\n")
    assert readers_of(source, "_value") == {"_fields", None, "Reader",
                                            "alias"}
    assert readers_of(source, "_fields") == set()


def attribute_readers(source, attr):
    """The top-level definitions of source that read the attribute attr
    of anything (None for a read outside any); assignments do not
    count."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else None
        found.update(owner for node in ast.walk(top)
                     if isinstance(node, ast.Attribute) and node.attr == attr
                     and isinstance(node.ctx, ast.Load))
    return found


def test_one_mean_recursion():
    # a mean path is built from the noise mean by sysmodel alone
    # (step_moments, whose rows chance.tube_rows tabulates) and by the
    # dynamic-programming baseline's one-step transition; the rollout
    # takes its margins from the table and draws only the noise
    places = {(path.name, owner) for path in MODULES
              if path.name != "sysmodel.py"
              for owner in attribute_readers(path.read_text(),
                                             "mean_per_step")}
    assert places == {("reachalgo.py", "dp_values")}
    rollout = (PACKAGE / "montecarlo.py").read_text()
    assert attribute_readers(rollout, "mean_per_step") == set()
    assert attribute_readers(rollout, "B_seq") == set()


def test_detector_flags_attribute_readers():
    source = ("LAST = sys.disturbance.mean_per_step[-1]\n"
              "def step(sys, k):\n"
              "    return sys.B_seq[k] @ sys.disturbance.mean_per_step[k]\n"
              "class Noise:\n"
              "    def __init__(self, mean_per_step):\n"
              "        self.mean_per_step = list(mean_per_step)\n"
              "    def first(self):\n"
              "        return getattr(self, 'B_seq')\n")
    assert attribute_readers(source, "mean_per_step") == {None, "step"}
    assert attribute_readers(source, "B_seq") == {"step"}


def callers_of(source, name):
    """The definition that holds each call of name in source, as name(...)
    or obj.name(...): the dotted path of its enclosing classes and
    functions, "<module>" outside any; sorted, one entry per call."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == name or \
                        isinstance(func, ast.Attribute) and func.attr == name:
                    found.append(".".join(path) or "<module>")
            visit(child, path)
    visit(ast.parse(source), [])
    return sorted(found)


def test_boundary_points_are_built_by_the_search_and_the_reader():
    # a search's outcome, skipped and infeasible points included, is
    # decided in RiskLP.lines alone; from_json only reads points back
    places = sorted((path.name, owner) for path in MODULES
                    for owner in callers_of(path.read_text(), "BoundaryPoint"))
    # lines builds two: the point it solves, and the point that stays at
    # the anchor
    assert places == [("chance.py", "RiskLP.lines")] * 2 + [
        ("reachalgo.py", "ReachSetResult.from_json")]


def test_detector_flags_callers():
    source = ("from . import chance\n"
              "from .chance import BoundaryPoint\n"
              "FIRST = BoundaryPoint(1)\n"
              "class Result:\n"
              "    kind = BoundaryPoint\n"
              "    @classmethod\n"
              "    def read(cls, docs):\n"
              "        return [chance.BoundaryPoint(d) for d in docs]\n"
              "def search(chains):\n"
              "    def one(chain):\n"
              "        return [BoundaryPoint(d) for d in chain]\n"
              "    return map(lambda c: BoundaryPoint(c), chains)\n"
              "def other(BoundaryPoint):\n"
              "    return BoundaryPoint\n")
    assert callers_of(source, "BoundaryPoint") == [
        "<module>", "Result.read", "search", "search.one"]
    assert callers_of(source, "search") == []


def imports_highspy(source: str) -> bool:
    """Whether source imports scipy's bundled HiGHS bindings,
    scipy.optimize._highspy or a module of it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(name == "scipy.optimize._highspy"
               or name.startswith("scipy.optimize._highspy.")
               for name in names):
            return True
    return False


def test_lpsolve_is_the_one_lp_backend():
    assert [path.name for path in MODULES
            if imports_highspy(path.read_text())] == ["lpsolve.py"]


def test_detector_flags_highspy_imports():
    for source in ("from scipy.optimize._highspy import _core\n",
                   "from scipy.optimize import _highspy\n",
                   "import scipy.optimize._highspy._core as core\n"):
        assert imports_highspy(source)
    assert not imports_highspy("from scipy.optimize import linprog\n"
                               "from .lpsolve import LpModel\n")


def highs_options():
    """The keys of lpsolve._OPTIONS, read from its source."""
    for node in ast.parse((PACKAGE / "lpsolve.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_OPTIONS"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("lpsolve.py defines no _OPTIONS")


def names_highs_options(source, options):
    """(line, what) for each place source configures HiGHS: a string
    constant that is one of the option names in options, and a call to
    setOptionValue."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in options:
            found.append((node.lineno, f"names {node.value}"))
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and \
                node.func.attr == "setOptionValue":
            found.append((node.lineno, "setOptionValue"))
    return sorted(found)


def test_lpsolve_holds_the_one_highs_configuration():
    options = highs_options()
    assert "presolve" in options
    assert [path.name for path in MODULES
            if names_highs_options(path.read_text(), options)] \
        == ["lpsolve.py"]


def test_detector_flags_highs_options():
    source = ("NO_PRESOLVE = {'presolve': 'off'}\n"
              "def quiet(highs):\n"
              "    highs.setOptionValue('output_flag', False)\n"
              "    return 'presolved', {'options': 1}\n")
    assert names_highs_options(source, {"presolve", "output_flag"}) == [
        (1, "names presolve"), (3, "names output_flag"),
        (3, "setOptionValue")]
    assert not names_highs_options("def f(x):\n    return x.presolve\n",
                                   {"presolve"})


# how code reaches a generator besides np.random: methods of generators,
# bit generators and seed sequences that make or move a stream
_STREAM_METHODS = {"jumped", "spawn", "advance", "bit_generator"}


def random_generators(source):
    """(top-level definition or None, line, what) for each place source
    builds or reaches a random generator: anything read from np.random or
    numpy.random, an import of numpy.random or of the random module, and
    the stream methods (jumped, spawn, advance, bit_generator)."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            elif isinstance(node, ast.Attribute):
                if node.attr in _STREAM_METHODS:
                    found.append((owner, node.lineno, node.attr))
                elif node.attr == "random" and isinstance(
                        node.value, ast.Name) and node.value.id in (
                        "np", "numpy"):
                    found.append((owner, node.lineno, "numpy.random"))
                continue
            else:
                continue
            for name in names:
                if name == "random" or name == "numpy.random" or \
                        name.startswith(("random.", "numpy.random.")):
                    found.append((owner, node.lineno, f"imports {name}"))
    return sorted(found, key=lambda f: (f[1], f[2]))


def test_one_helper_builds_the_random_generators():
    # one stream layout: chunk j of a rollout draws from the generator
    # montecarlo._chunk_rng(seed, j) builds, and nothing else draws
    places = {(path.name, owner) for path in MODULES
              for owner, _, _ in random_generators(path.read_text())}
    assert places == {("montecarlo.py", "_chunk_rng")}


def test_detector_flags_random_generators():
    source = ("import random\n"
              "import numpy as np\n"
              "from numpy.random import default_rng\n"
              "from numpy import random as npr\n"
              "import numpy.random\n"
              "SEEDS = np.random.SeedSequence(0)\n"
              "def draw(seed, j):\n"
              "    gen = np.random.Philox(seed).jumped(j)\n"
              "    return gen.bit_generator\n"
              "class Streams:\n"
              "    def children(self, seq):\n"
              "        return seq.spawn(2)\n"
              "def clean(x):\n"
              "    return np.linalg.norm(x)\n")
    assert random_generators(source) == [
        (None, 1, "imports random"), (None, 3, "imports numpy.random"),
        (None, 3, "imports numpy.random.default_rng"),
        (None, 4, "imports numpy.random"), (None, 5, "imports numpy.random"),
        (None, 6, "numpy.random"), ("draw", 8, "jumped"),
        ("draw", 8, "numpy.random"), ("draw", 9, "bit_generator"),
        ("Streams", 12, "spawn")]
