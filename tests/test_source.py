"""Static checks over the package source."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from contextlib import suppress
from dataclasses import fields
from functools import cache
from pathlib import Path

import pytest

import cance
from cance.config import RunConfig

BROAD = {"Exception", "BaseException"}


def _names(node):
    if node is None:
        return {"BaseException"}  # a bare `except:`
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def broad_handlers(source: str, filename="<string>") -> list:
    """Lines of handlers catching every exception that do not re-raise it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ExceptHandler) or not BROAD & _names(node.type):
            continue
        last = node.body[-1]
        if not (isinstance(last, ast.Raise) and last.exc is None):
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("try:\n    f()\nexcept:\n    pass\n", True),
    ("try:\n    f()\nexcept Exception as exc:\n    log(exc)\n", True),
    ("try:\n    f()\nexcept BaseException:\n    raise ValueError()\n", True),
    ("try:\n    f()\nexcept (ValueError, Exception):\n    pass\n", True),
    ("try:\n    f()\nexcept builtins.Exception:\n    pass\n", True),
    ("try:\n    f()\nexcept Exception:\n    undo()\n    raise\n", False),
    ("try:\n    f()\nexcept ValueError:\n    pass\n", False),
])
def test_guard_flags_handlers_that_swallow_everything(source, flagged):
    assert bool(broad_handlers(source)) == flagged


def test_no_handler_swallows_every_exception():
    # a programming error must propagate, never end up as a recorded failure
    root = Path(cance.__file__).parent
    found = [
        line
        for path in sorted(root.rglob("*.py"))
        for line in broad_handlers(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def _attribute_reads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unread_fields(sources, sections) -> list:
    """`Class.field` for each field of `sections` (class name -> field names)
    that no source reads as an attribute outside that class's validate()."""
    trees = [ast.parse(source) for source in sources]
    reads = sum(map(_attribute_reads, trees), Counter())
    found = []
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ClassDef) and node.name in sections:
            in_validate = sum((_attribute_reads(f) for f in node.body
                               if isinstance(f, ast.FunctionDef)
                               and f.name == "validate"), Counter())
            found += [f"{node.name}.{name}" for name in sections[node.name]
                      if reads[name] <= in_validate[name]]
    return found


SECTION = """
class S:
    def validate(self):
        if self.a < 0 or not self.b:
            raise ValueError(getattr(self, "c"))
"""


@pytest.mark.parametrize("other, flagged", [
    ("", ["S.a", "S.b", "S.c"]),
    ("def run(s):\n    return s.a, s.c\n", ["S.b"]),
    ("def run(s):\n    s.b = 1\n    return getattr(s, 'b')\n", ["S.a", "S.b", "S.c"]),
    ("class T:\n    def norm(self):\n        return self.a + self.b + self.c\n", []),
])
def test_guard_flags_keys_read_only_by_validate(other, flagged):
    assert unread_fields([SECTION, other], {"S": ["a", "b", "c"]}) == flagged


def test_every_config_key_is_read_outside_validate():
    # a key that only validate() reads changes the config hash but no result
    root = Path(cance.__file__).parent
    config = RunConfig()
    sections = {
        type(getattr(config, sec.name)).__name__:
            [f.name for f in fields(getattr(config, sec.name))]
        for sec in fields(config)
    }
    sources = [path.read_text() for path in sorted(root.rglob("*.py"))]
    assert unread_fields(sources, sections) == []


def scoring_uses(source: str) -> list:
    """(innermost function, text) of each use of a `.score` or `.composite`
    attribute: the whole call where it is called, else the reference."""
    tree = ast.parse(source)
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("score", "composite"):
            found.append((where, ast.unparse(calls.get(id(node), node))))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def outside_block_evaluator(source: str) -> list:
    return [(where, text) for where, text in scoring_uses(source)
            if where != "score_blocks"]


@pytest.mark.parametrize("source, flagged", [
    ("def score_blocks(c, e, x):\n    return e.score(c.composite(x)[:, :2])\n", []),
    ("def prepare_features(compression, train_n, val_n):\n"
     "    return (compression.composite(train_n.features),\n"
     "            compression.composite(val_n.features))\n",
     [("prepare_features", "compression.composite(train_n.features)"),
      ("prepare_features", "compression.composite(val_n.features)")]),
    ("def prepare_features(compression, test_n):\n"
     "    return compression.composite(test_n.features)\n",
     [("prepare_features", "compression.composite(test_n.features)")]),
    ("def run(estimator, z):\n    return estimator.score(z)\n",
     [("run", "estimator.score(z)")]),
    ("def score_blocks(e, z):\n    def f(x):\n        return e.score(x)\n",
     [("f", "e.score(x)")]),
    ("scores = map(model.score, blocks)\n", [("", "model.score")]),
    ("def run(report):\n    return report.scores, score(report)\n", []),
])
def test_guard_flags_scoring_outside_the_block_evaluator(source, flagged):
    assert outside_block_evaluator(source) == flagged


def test_scores_come_only_from_the_block_evaluator():
    # so a row's features and score depend on the row and the model alone,
    # in every command and in training
    root = Path(cance.__file__).parent
    found = [(str(path.relative_to(root)), *use)
             for path in sorted(root.rglob("*.py"))
             for use in (scoring_uses(path.read_text()) if path.name != "pipeline.py"
                         else outside_block_evaluator(path.read_text()))]
    assert found == []


def top_level_names(source: str) -> set:
    """Names a module binds outside its functions and classes, other than
    by an import."""
    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name
            else:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield node.id
                yield from walk(ast.iter_child_nodes(node))

    return set(walk(ast.parse(source).body))


def package_names(module_name: str) -> set:
    """The names a `cance` module defines, and a package's submodules."""
    module = importlib.import_module(module_name)
    names = top_level_names(Path(module.__file__).read_text())
    return names | {m.name for m in pkgutil.iter_modules(getattr(module, "__path__", []))}


def indirect_imports(source: str, defines, filename="<string>") -> list:
    """`file:line module.name` of each `from cance... import name` whose module
    does not define `name`; `defines(module)` gives the names it defines."""
    return [f"{filename}:{node.lineno} {node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "cance"
            for alias in node.names if alias.name not in defines(node.module)]


def test_top_level_names_skip_imports_and_locals():
    source = ("import os\nfrom numpy import array\nA = 1\nB: int = 2\n"
              "def f():\n    C = 3\nclass K:\n    D = 4\n"
              "if A:\n    E, F = 5, 6\nfor G in ():\n    pass\n")
    assert top_level_names(source) == {"A", "B", "f", "K", "E", "F", "G"}


@pytest.mark.parametrize("source, flagged", [
    ("from cance.nn.layers import mlp\n", []),
    ("from cance import pipeline\n", []),
    ("from numpy import array\nfrom . import mlp\n", []),
    ("from cance.nn import mlp\n", ["<string>:1 cance.nn.mlp"]),
    ("def f():\n    from cance.nn.layers import copy_state, mlp\n",
     ["<string>:2 cance.nn.layers.copy_state"]),
])
def test_guard_flags_imports_through_a_non_owner(source, flagged):
    defines = {"cance": {"pipeline", "nn"}, "cance.nn": {"layers"},
               "cance.nn.layers": {"mlp"}}.get
    assert indirect_imports(source, defines) == flagged


def test_every_import_names_the_defining_module():
    # one import path per name: a re-export is a second owner to keep in step
    tests = Path(__file__).resolve().parent
    paths = sorted(Path(cance.__file__).parent.rglob("*.py")) + sorted(tests.glob("*.py"))
    defines = cache(package_names)
    found = [line for path in paths for line in indirect_imports(
        path.read_text(), defines, str(path.relative_to(tests.parent)))]
    assert found == []


THREAD_SETTERS = ("set_num_threads", "threadpool_limits", "NUM_THREADS")


def blas_thread_setters(source: str, filename="<string>") -> list:
    """`file:line` of each name, attribute, import or string that names a
    BLAS thread setter: an OpenBLAS `*set_num_threads*` symbol, threadpoolctl's
    `threadpool_limits`, or an `*_NUM_THREADS` environment variable."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        text = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(text, str) and any(name in text for name in THREAD_SETTERS):
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("lib.scipy_openblas_set_num_threads64_(1)\n", True),
    ("set_, get = (getattr(h, f'x_{n}') for n in ('set_num_threads', 'g'))\n", True),
    ("from threadpoolctl import threadpool_limits\n", True),
    ("os.environ['OPENBLAS_NUM_THREADS'] = '1'\n", True),
    ("threads = [get() for _, get, _ in OPENBLAS]\n", False),
    ("torch.get_num_threads()\n", False),
])
def test_guard_flags_blas_thread_setters(source, flagged):
    assert bool(blas_thread_setters(source)) == flagged


def test_only_the_blas_owner_sets_blas_threads():
    # one thread policy per process, set once at import by `cance.machine`: a
    # scoped pin elsewhere would make a fit's bits depend on the path it took
    root = Path(cance.__file__).parent
    found = {str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
             if blas_thread_setters(path.read_text())}
    assert found == {"machine.py"}


def scipy_imports(source: str, filename="<string>") -> list:
    """`file:line` of each import of scipy, as a statement or as a
    "scipy..." string."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            modules = ([alias.name for alias in child.names]
                       if isinstance(child, ast.Import)
                       else [child.module or ""] if isinstance(child, ast.ImportFrom)
                       else [child.value] if isinstance(child, ast.Constant)
                       and isinstance(child.value, str) else [])
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                yield f"{filename}:{child.lineno}"
            yield from walk(child)

    return list(walk(ast.parse(source, filename)))


@pytest.mark.parametrize("source, flagged", [
    ("import scipy\n", True),
    ("import numpy, scipy.special\n", True),
    ("from scipy.linalg import solve_triangular\n", True),
    ("def f():\n    from scipy import linalg\n", True),
    ("importlib.import_module('scipy.special')\n", True),
    ("lib.scipy_dtrtrs_64_\nname = 'scipy_openblas_get_config64_'\n", False),
    ('"""Matches scipy\'s bits."""\n', False),
])
def test_guard_flags_scipy_imports(source, flagged):
    assert bool(scipy_imports(source)) == flagged


def test_no_module_imports_scipy():
    # numpy's OpenBLAS runs the Gaussian log-density and the standard library
    # the normal CDF: scipy is a test reference
    root = Path(cance.__file__).parent
    found = [line for path in sorted(root.rglob("*.py"))
             for line in scipy_imports(path.read_text(), str(path.relative_to(root)))]
    assert found == []


NATIVE_LOADERS = {"CDLL", "PyDLL", "WinDLL", "OleDLL", "LibraryLoader", "cdll", "pydll",
                  "windll", "oledll", "LoadLibrary", "dlopen", "load_library"}


def native_library_uses(source: str, filename="<string>") -> list:
    """`file:line` of each import of `ctypes` (or `_ctypes`), as a statement
    or as a module-name string, and of each name or attribute that opens a
    native library: ctypes' loaders, `dlopen` or numpy's `ctypeslib.load_library`."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom)
                   else [node.value] if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) else [])
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if (any(m.split(".")[0] in ("ctypes", "_ctypes") for m in modules)
                or name in NATIVE_LOADERS):
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("import ctypes\n", True),
    ("import numpy, ctypes.util\n", True),
    ("from ctypes import c_int\n", True),
    ("def f():\n    import _ctypes as c\n", True),
    ("importlib.import_module('ctypes')\n", True),
    ("lib = loader.CDLL(path)\n", True),
    ("lib = np.ctypeslib.load_library('libm', '.')\n", True),
    ("handle = dlopen(path, 0)\n", True),
    ("address = factor.ctypes.data\n", False),
    ('"""Declared through ctypes, as scipy calls it."""\n', False),
    ("rows = load_csv(path)\n", False),
])
def test_guard_flags_native_library_uses(source, flagged):
    assert bool(native_library_uses(source)) == flagged


def test_only_the_machine_opens_native_libraries():
    # the BLAS pin holds for the library the machine module opened; a
    # second handle elsewhere could run on other kernels
    root = Path(cance.__file__).parent
    found = {str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
             if native_library_uses(path.read_text())}
    assert found == {"machine.py"}


THREAD_MAKERS = {"ThreadPoolExecutor", "Thread", "ThreadPool", "Timer", "start_new_thread"}


def thread_starts(source: str) -> list:
    """`owner:line` of each call, or subclass, of a thread or thread pool
    maker (`threading.Thread`, `ThreadPoolExecutor`, `multiprocessing`'s
    `ThreadPool`, `threading.Timer`, `_thread.start_new_thread`), where the
    owner is the dotted path of the enclosing classes and functions."""
    found = []

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def visit(node, owner):
        if isinstance(node, ast.Call) and name(node.func) in THREAD_MAKERS or (
                isinstance(node, ast.ClassDef)
                and any(name(base) in THREAD_MAKERS for base in node.bases)):
            found.append(f"{owner}:{node.lineno}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("with ThreadPoolExecutor(1) as a, ThreadPoolExecutor(2) as b:\n    pass\n",
     [":1", ":1"]),
    ("def run():\n    t = threading.Thread(target=f)\n", ["run:2"]),
    ("class Helper:\n    def __init__(self):\n"
     "        self._pool = futures.ThreadPoolExecutor(1)\n", ["Helper.__init__:3"]),
    ("class Worker(threading.Thread):\n    pass\n", [":1"]),
    ("pool = ThreadPool(4)\n_thread.start_new_thread(f, ())\n", [":1", ":2"]),
    ("from concurrent.futures import ThreadPoolExecutor\n", []),
    ("lock, done = threading.Lock(), threading.Event()\n", []),
    ('"""One Thread per CPU."""\n', []),
])
def test_guard_flags_thread_starts(source, flagged):
    assert thread_starts(source) == flagged


def test_one_thread_pool_per_owner():
    # `run_jobs` and a fit's `Helper` hand out the CPUs that `spare_cpus`
    # grants; a second pool or thread would run work it has not granted
    root = Path(cance.__file__).parent
    found = sorted(".".join([*path.relative_to(root).with_suffix("").parts,
                             start.split(":")[0]])
                   for path in sorted(root.rglob("*.py"))
                   for start in thread_starts(path.read_text()))
    assert found == ["evaluation.run_jobs", "machine.Helper.__init__"]


FORWARD_OWNERS = {"contrast", "EstimatorModel.log_odds"}


def forward_calls(source: str) -> list:
    """(qualified name of the innermost function or class, text) of each
    `.forward(...)` call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "forward"):
            found.append((where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def stray_forwards(source: str) -> list:
    return [use for use in forward_calls(source) if use[0] not in FORWARD_OWNERS]


@pytest.mark.parametrize("source, flagged", [
    ("def contrast(net, z, v):\n    return net.forward(stack(z, v), train=True)\n", []),
    ("class EstimatorModel:\n    def log_odds(self, z):\n"
     "        return self.net.forward(z)\n", []),
    ("def contrast(net, z):\n    return net.backward(z), forward(z), net.forward\n", []),
    ("def nce_loss(net, z, v):\n    return net.forward(z, train=True)\n",
     [("nce_loss", "net.forward(z, train=True)")]),
    ("def contrast(net, z):\n    def f(x):\n        return net.forward(x)\n",
     [("contrast.f", "net.forward(x)")]),
    ("class Other:\n    def log_odds(self, z):\n        return self.net.forward(z)\n",
     [("Other.log_odds", "self.net.forward(z)")]),
    ("t = net.forward(z)\n", [("", "net.forward(z)")]),
])
def test_guard_flags_forwards_outside_the_contrast_core(source, flagged):
    assert stray_forwards(source) == flagged


def test_nce_forwards_only_in_contrast_and_log_odds():
    # every NCE objective runs the classifier step's stacked forward, so
    # validation and the psi step see the loss the classifier minimizes
    source = (Path(cance.__file__).parent / "nce.py").read_text()
    assert {where for where, _ in forward_calls(source)} == FORWARD_OWNERS
    assert stray_forwards(source) == []


CPU_READERS = ("usable_cpus", "sched_getaffinity", "cpu_count")


def cpu_count_reads(source: str, filename="<string>") -> list:
    """`file:line` of each name, attribute or import that reads the CPU
    count: `cance.machine.usable_cpus` (an alias of it too), `os.sched_getaffinity`,
    or a `cpu_count` (`os`, `multiprocessing`, `os.process_cpu_count`)."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        text = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if text and any(name in text for name in CPU_READERS):
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("workers = min(len(jobs), data.usable_cpus())\n", True),
    ("from cance.data import usable_cpus as _usable_cpus\n", True),
    ("workers = _usable_cpus()\n", True),
    ("n = len(os.sched_getaffinity(0))\n", True),
    ("n = os.cpu_count() or 1\n", True),
    ("from multiprocessing import cpu_count\n", True),
    ("n = os.process_cpu_count()\n", True),
    ("with spare_cpus(len(jobs) - 1) as extra:\n    pass\n", False),
    ("workers = cpus.held + 1\n", False),
    ('"""Runs on usable CPUs; see os.cpu_count."""\n', False),
])
def test_guard_flags_cpu_count_reads(source, flagged):
    assert bool(cpu_count_reads(source)) == flagged


def test_only_the_cpu_owner_reads_the_cpu_count():
    # `spare_cpus` hands out every CPU beyond the caller's: a count read
    # elsewhere would start workers, helpers or children it has not granted
    root = Path(cance.__file__).parent
    found = {str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
             if cpu_count_reads(path.read_text())}
    assert found == {"machine.py"}


def layout_modules(readme: str) -> set:
    """The module paths that README's "Package layout" block lists: each
    entry's name, and for a package entry (`nn/`) the `.py` names in its
    text, under the package."""
    block = readme.split("## Package layout", 1)[1].split("```")[1]
    found, package = set(), ""
    for line in block.splitlines():
        entry = re.match(r"  (\S+)", line)
        if entry:
            package = entry[1] if entry[1].endswith("/") else ""
            if not package:
                found.add(entry[1])
        if package:
            found.update(package + name for name in re.findall(r"\w+\.py", line))
    return found


def test_layout_reader_takes_entries_and_package_members():
    readme = ("## Package layout\n\n```\nsrc/cance/\n  nn/    a.py (x), b.py\n"
              "         (y.py)\n  c.py   text, d.py\n    more\n```\n")
    assert layout_modules(readme) == {"nn/a.py", "nn/b.py", "nn/y.py", "c.py"}


def test_readme_layout_names_every_module():
    root = Path(cance.__file__).parent
    modules = {path.relative_to(root).as_posix() for path in root.rglob("*.py")
               if path.name != "__init__.py"}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert layout_modules(readme) == modules


def readme_dotted_names(readme: str, modules) -> set:
    """Each backticked dotted name in `readme` whose first part, after an
    optional `cance.` prefix, is one of `modules`."""
    names = re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)`", readme)
    return {name for name in names
            if name.removeprefix("cance.").split(".")[0] in modules}


def resolves(name: str) -> bool:
    """Whether `name` (with or without `cance.`) is a cance module, a module
    attribute or a `RunConfig` `section.key`."""
    section, _, key = name.partition(".")
    if section in {f.name for f in fields(RunConfig)} and "." not in key and any(
            f.name == key for f in fields(getattr(RunConfig(), section))):
        return True
    target, parts = cance, name.removeprefix("cance.").split(".")
    for i, part in enumerate(parts):
        if not hasattr(target, part):  # a submodule not imported yet
            with suppress(ImportError):
                importlib.import_module(".".join(["cance", *parts[:i + 1]]))
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_readme_name_reader_takes_cance_names_and_resolves_them():
    readme = ("`nce.lr`, `cance.machine.Helper`, `np.loadtxt`, `DenseLayer.forward`,\n"
              "`nn.layers.Helper` and `data.no_such_name`, not `machine` or `a b.c`")
    names = readme_dotted_names(readme, {"nce", "machine", "nn", "data"})
    assert names == {"nce.lr", "cance.machine.Helper", "nn.layers.Helper",
                     "data.no_such_name"}
    assert {name for name in names if not resolves(name)} == {
        "nn.layers.Helper", "data.no_such_name"}


def test_readme_names_resolve():
    modules = {module.name for module in pkgutil.iter_modules(cance.__path__)}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    names = readme_dotted_names(readme, modules)
    assert names and sorted(name for name in names if not resolves(name)) == []
