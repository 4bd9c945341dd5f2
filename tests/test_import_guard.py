"""The simulator needs numpy only: networkx is the test oracle's graph
(``tests/reference/routing.py``), not something ``src/`` imports.  And
numpy itself loads on first use: a control-plane run (provisioning, MP-BGP
churn, snapshots, the auditor) never calls it, so importing what such a
run imports must not pay for it."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, str(SRC)],
        capture_output=True, text=True,
    )


def test_importing_the_simulator_does_not_import_networkx():
    done = _run(
        "import repro.cli, repro.experiments, repro.sweep, repro.obs; "
        "assert 'networkx' not in sys.modules, 'networkx imported by src/'"
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_control_plane_does_not_import_numpy():
    done = _run(
        "import repro.cli, repro.topology, repro.vpn.provision, repro.sim.snapshot, "
        "repro.audit, repro.control; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
        "assert not loaded, f'numpy loaded at import: {loaded[:3]}'"
    )
    assert done.returncode == 0, done.stderr
