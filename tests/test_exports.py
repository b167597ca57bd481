import importlib
import importlib.util
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import revstack

MODULES = sorted(info.name for info in pkgutil.iter_modules(revstack.__path__))


@pytest.mark.parametrize("module", ["revstack"] + ["revstack." + m for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def _traced_names():
    """``TARGETS`` of the benchmark's tracer, ``bench/tracer.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr, span", _traced_names())
def test_every_name_the_benchmark_traces_is_callable(module, attr, span):
    # the traced benchmark wraps these by name; dropping one breaks it
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", [
    (module, "gradient") for module in ("revstack", "revstack.equilibrium", "revstack.synthesis",
                                        "revstack.geometry", "revstack.verify", "revstack.calculus")
] + [(module, "reduce_problem") for module in ("revstack", "revstack.synthesis", "revstack.verify")])
def test_every_module_the_benchmark_rebinds_holds_the_name(module, attr):
    # the benchmark's tracer wraps these names module by module, and its own
    # tests require each binding; a module that stops importing one breaks it
    assert callable(vars(importlib.import_module(module)).get(attr))


def test_importing_the_package_leaves_the_command_line_unloaded():
    # the benchmark's setup_s times `import revstack`; the CLI's parser is
    # built when revstack.cli is imported, so it must not be on that path
    src = pathlib.Path(revstack.__file__).resolve().parent.parent
    probe = ("import sys, revstack; "
             "print(sorted({'argparse', 'revstack.cli'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=str(src), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
