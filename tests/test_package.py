"""Tests for the package's public namespace and its runtime dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cartanconn


def test_every_public_name_is_bound():
    # a name left in __all__ after its definition is gone breaks
    # `from cartanconn import *` and nothing else would notice
    missing = [name for name in cartanconn.__all__ if not hasattr(cartanconn, name)]
    assert not missing, missing
    assert len(set(cartanconn.__all__)) == len(cartanconn.__all__)


GUARD = """\
import contextlib, importlib, io, json, pkgutil, sys
import cartanconn
from cartanconn import cli
modules = [importlib.import_module(f"cartanconn.{info.name}").__name__
           for info in pkgutil.iter_modules(cartanconn.__path__)]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["run", sys.argv[1]]), cli.main(["--selftest"])]
loaded = sorted({name.partition(".")[0] for name in sys.modules} & {"scipy", "sympy", "mpmath"})
print(json.dumps([modules, codes, loaded]))
"""


def test_the_package_runs_on_numpy_alone(tmp_path):
    # pyproject.toml declares numpy as the only runtime dependency: in a
    # fresh interpreter, every module, the README example scenario and the
    # self-test load none of the test extra's packages (or sympy)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": "develop-gravity",
        "model": {"V": "9.81", "W": "0"},
        "trajectory": {"preset": "freefall", "x0": 0.0, "v0": 0.0, "t1": 1.0},
        "integrator": {"step": 0.001},
        "output": {"path": str(tmp_path / "out"), "format": "csv"},
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(cartanconn.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", GUARD, str(config)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules, codes, loaded = json.loads(done.stdout)
    sources = Path(cartanconn.__file__).parent.glob("*.py")
    assert set(modules) == {f"cartanconn.{p.stem}" for p in sources if p.stem != "__init__"}
    assert codes == [0, 0]
    assert loaded == []


REIMPORT = """\
import gc, importlib, json, sys, types
def purge():
    for name in [m for m in sys.modules if m.partition(".")[0] == "cartanconn"]:
        del sys.modules[name]
importlib.import_module("cartanconn.cli")
for _ in range(3):
    purge()
    importlib.import_module("cartanconn.cli")
gc.collect()
print(json.dumps(sorted(m.__name__ for m in gc.get_objects() if isinstance(m, types.ModuleType)
                        and m.__name__ in ("cartanconn.liegroup", "cartanconn.principal"))))
"""


def test_a_purged_package_is_freed_when_imported_again():
    # a module-level typing alias over the package's classes is kept by
    # typing's cache, and with it each earlier copy of liegroup and
    # principal; after three purges and imports only the last copy is left
    env = dict(os.environ, PYTHONPATH=str(Path(cartanconn.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["cartanconn.liegroup", "cartanconn.principal"]
