"""The package's own namespace: each name is imported from its submodule."""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import hmfp

ROOT = Path(__file__).resolve().parents[1]


def test_package_exposes_only_submodules_and_version():
    public = [name for name, value in vars(hmfp).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert public == []
    assert isinstance(hmfp.__version__, str)


# Imports every hmfp module and prints the top-level modules that the imports
# loaded beyond those present at interpreter start (site .pth files may load
# some there) and the standard library.
_NEW_TOP_LEVEL_MODULES = """
import importlib, pkgutil, sys
def top_level():
    return {name.partition(".")[0] for name in sys.modules}
before = top_level()
import hmfp
for info in pkgutil.iter_modules(hmfp.__path__):
    importlib.import_module("hmfp." + info.name)
print(" ".join(sorted(top_level() - before - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NEW_TOP_LEVEL_MODULES],
                         env=env, capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) <= {"hmfp", "numpy"}, out.stdout


def _load_bench(name):
    """Import bench/<name>.py from its file, leaving sys.path alone."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_is_defined_where_the_tracer_looks():
    # the benchmark traces hmfp names from outside the package; a moved or
    # renamed one would otherwise surface only in a traced benchmark run
    tracer = _load_bench("tracer")
    workloads = _load_bench("workloads")
    for target in tracer.TARGETS:
        obj = importlib.import_module("hmfp." + target.module)
        for part in target.qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target.name
        assert (obj.__module__, obj.__qualname__) == (
            "hmfp." + target.module, target.qualname), target.name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in declared["workloads"])
