import os
import subprocess
import sys
from pathlib import Path

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
