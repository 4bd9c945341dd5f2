"""The simulator needs numpy only: networkx is the test oracle's graph
(``tests/reference/routing.py``), not something ``src/`` imports."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_simulator_does_not_import_networkx():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.cli, repro.experiments, repro.sweep, repro.obs; "
        "assert 'networkx' not in sys.modules, 'networkx imported by src/'"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
