"""The benchmark's traced functions exist under the names it looks up.

``perfbench/run.py`` wraps each ``TARGETS`` entry by name when it runs
with ``--trace 1``; a function renamed or deleted in the package would
otherwise fail only there.  The benchmark's files are read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import popdiff.cli  # noqa: F401  (imports every module the targets name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # run.py imports spans and workloads from its own directory; no
    # bytecode is written there, and the modules are dropped again
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    assert run.TARGETS
    for module_name, path, _ in run.TARGETS:
        # the lookup of run.install_targets and spans.Tracer.install
        owner = sys.modules[f"popdiff.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        target = vars(owner).get(attr)
        assert target is not None, f"popdiff.{module_name}.{path} is gone"
        assert callable(getattr(target, "__func__", target)), path
