"""Importing the CLI and the detection package must not load numpy.

The columnar pair scorer imports numpy inside the scoring call; a
module-level import would add numpy's load time to every CLI command,
including the ones that never score a pair.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_cli_and_dedup_imports_do_not_load_numpy():
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, path] if path else [source]))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.cli, repro.dedup; import sys; "
            "assert 'numpy' not in sys.modules",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
