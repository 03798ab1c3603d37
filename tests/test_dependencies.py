import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import szegofock.profile

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_test_only_package():
    # numpy is the one runtime dependency; mpmath, scipy and hypothesis
    # serve the tests only and must not be imported by the library
    code = ("import sys, szegofock, szegofock.cli; "
            "print(sorted(m for m in ('mpmath', 'scipy', 'hypothesis') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_trace_hooks_resolve():
    # perfbench/tracer.py wraps each ENTRIES name where its callers look it
    # up and reads the etas of _log_inner_batch positionally; a name that a
    # change drops or renames would leave its layer untraced, silently
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    entries = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "ENTRIES")
    assert {module for module, _ in entries} == {"profile", "radial", "verify"}
    for module, attr in entries:
        assert hasattr(importlib.import_module("szegofock." + module), attr), (module, attr)
    params = list(inspect.signature(szegofock.profile._log_inner_batch).parameters)
    assert params[:4] == ["spec", "tau", "etas", "rtol"]
