"""Import-time footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import netlasso


def test_import_leaves_scipy_unloaded():
    # Run in a fresh interpreter: this test process has scipy loaded already.
    src = str(Path(netlasso.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, netlasso, netlasso.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
