"""The package namespace: what `import ofdmsee` exports."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ofdmsee

# a model formula's spelling, and the one module allowed to write it
FORMULA_HOMES = {
    "exp(-1.0 / ": "pa_models", "10.0 ** (": "_common", "log(2.0)": "_common", "log2(1.0 + ": "se_engine"
}

MODULES = ("specfun", "pa_models", "power_models", "se_engine", "ee_engine", "pas_engine", "mc_oracle")


def test_all_is_the_union_of_the_module_exports():
    names = set()
    for name in MODULES:
        names.update(importlib.import_module("ofdmsee." + name).__all__)
    assert len(ofdmsee.__all__) == len(set(ofdmsee.__all__))
    assert set(ofdmsee.__all__) == names | {"__version__"}


def test_every_exported_name_resolves():
    for name in ofdmsee.__all__:
        assert getattr(ofdmsee, name) is not None, name
    for module in MODULES:
        mod = importlib.import_module("ofdmsee." + module)
        for name in mod.__all__:
            assert getattr(ofdmsee, name) is getattr(mod, name), (module, name)


def test_alias_is_not_exported():
    assert "pdf_unclipped_closed" not in ofdmsee.__all__
    assert not hasattr(ofdmsee, "pdf_unclipped_closed")


def test_every_traced_name_resolves():
    # the benchmark's tracer looks these names up to wrap them; a name the
    # package drops makes every traced benchmark run fail
    from perfbench.tracer import TRACED

    missing = [
        f"{module}.{name}" for module, name in TRACED
        if not callable(getattr(importlib.import_module("ofdmsee." + module), name, None))
    ]
    assert missing == []


def test_import_leaves_scipy_spatial_unloaded():
    # only the kNN estimate_mi needs scipy.spatial, and only small Bessel
    # arguments need scipy.special, both slow to import; scipy.optimize is
    # slow too, and the optimizers do without it
    src = Path(ofdmsee.__file__).resolve().parent.parent
    code = (
        "import sys, ofdmsee, ofdmsee.cli; "
        "print([m for m in ('scipy.special', 'scipy.spatial', 'scipy.optimize') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["se-sweep", "pas-frontier", "tradeoff", "optimal-xi", "mc-validate"])
def test_default_run_leaves_scipy_unloaded(command, tmp_path):
    # these runs evaluate the Bessel kernels at arguments of 50 and above
    # only, which the Hankel expansion serves without scipy; optimal-xi's
    # search starts at a loading whose clipped density is exactly 0, which
    # evaluates no Bessel function; mc-validate's radial CDF starts at r = 0,
    # where the kernels' smaller arguments meet Gaussian factors of exactly 0,
    # so the kernels skip them
    src = Path(ofdmsee.__file__).resolve().parent.parent
    code = (
        "import sys, ofdmsee.cli; "
        "code = ofdmsee.cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')); "
        "sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code, command],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_no_module_level_scipy_import():
    # scipy.special alone takes about a quarter second to import, so every
    # scipy import sits in the function that needs it
    def outside_functions(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from outside_functions(child)

    found = []
    for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py")):
        for node in outside_functions(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_function_takes_a_method_parameter():
    # each quantity has one evaluation path; alternatives live in the tests
    found = []
    for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "method" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_parameter_is_read():
    # a parameter the body never reads is a knob that does nothing; self,
    # cls and _-prefixed names are exempt, as they fill a fixed signature
    idle = []
    for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                read = {
                    sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                }
                for param in params:
                    if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                        continue
                    if param.arg not in read:
                        idle.append(f"{path.name}:{node.lineno} {param.arg}")
    assert idle == []


def test_every_import_is_used_or_exported():
    # a name a module imports but never reads nor re-exports is dead weight
    unused = []
    for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "ofdmsee" if path.stem == "__init__" else "ofdmsee." + path.stem
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name != "*" and name not in read and name not in exported:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_module_name_is_used():
    # a module-level private function, class or constant that no code of the
    # package reads is a helper a refactor left behind
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py"))
    }

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    read = Counter(name for tree in trees.values() for name in reads(tree))
    idle = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(reads(node))
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and read[name] - own[name] == 0:
                    idle.append(f"{file}:{node.lineno} {name}")
    assert idle == []


def test_each_formula_is_written_in_one_module():
    # the clip probability lives in pa_models, the dB conversions and ln 2
    # in _common, log2(1 + gamma*xi) in se_engine's se_ideal; every other
    # module calls them rather than copying them
    copies = []
    for path in sorted(Path(ofdmsee.__file__).resolve().parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for spelling, home in FORMULA_HOMES.items():
                if spelling in line and path.stem != home:
                    copies.append(f"{path.name}:{lineno} {spelling.strip()}")
    assert copies == []
