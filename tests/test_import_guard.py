"""What importing the simulator costs.

The simulator needs numpy only: networkx is the test oracle's graph
(``tests/reference/routing.py``), not something ``src/`` imports.  And
numpy itself loads on first use: a control-plane run (provisioning, MP-BGP
churn, snapshots, the auditor) never calls it, so importing what such a
run imports must not pay for it.

Every package re-exports its names lazily (``repro._exports.attach``), so
importing one submodule costs that submodule and its own imports: the
number of ``repro`` modules an entry point loads is gated here as a count
(what a fresh interpreter loads does not depend on the host), and the
re-export tables must still give every name the package lists.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "dataplane", "experiments", "metrics", "mpls", "net", "obs",
    "qos", "routing", "sim", "sweep", "traffic", "vpn",
)

#: The control-plane entry points: provisioning, snapshots, the auditor.
CONTROL_PLANE = (
    "repro.cli, repro.topology, repro.vpn.provision, repro.sim.snapshot, "
    "repro.audit, repro.control"
)


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, str(SRC)],
        capture_output=True, text=True,
    )


def _loaded(imports: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``import
    <imports>``."""
    done = _run(
        f"import {imports}; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_simulator_does_not_import_networkx():
    # Every module of src/, not what some entry point happens to load: the
    # packages import their submodules only on first use.
    done = _run(
        "import importlib, pkgutil, repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    if name != 'repro.__main__':\n"
        "        importlib.import_module(name)\n"
        "assert len(names) > 90, names\n"
        "assert 'networkx' not in sys.modules, 'networkx imported by src/'"
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_control_plane_does_not_import_numpy():
    done = _run(
        f"import {CONTROL_PLANE}; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
        "assert not loaded, f'numpy loaded at import: {loaded[:3]}'"
    )
    assert done.returncode == 0, done.stderr


# Measured at the change that made the re-exports lazy; the eager package
# __init__s loaded 24, 80 and 64.
@pytest.mark.parametrize("imports, budget", [
    ("repro.cli", 5),
    ("repro.experiments.e5_sla", 51),
    (CONTROL_PLANE, 42),
], ids=["cli", "e5_sla", "control_plane"])
def test_repro_modules_loaded_per_entry_point(imports: str, budget: int):
    loaded = _loaded(imports)
    assert len(loaded) <= budget, loaded


def test_a_pe_does_not_load_the_baselines_or_te():
    loaded = set(_loaded("repro.vpn.pe"))
    assert not loaded & {
        "repro.vpn.ipsec", "repro.vpn.overlay", "repro.mpls.te",
        "repro.qos.intserv", "repro.traffic.fluid",
    }


def test_the_topology_does_not_load_telemetry():
    assert "repro.obs.telemetry" not in _loaded("repro.topology")


def test_a_submodule_resolves_as_a_package_attribute():
    done = _run(
        "import repro.qos; assert 'repro.qos.cbq' not in sys.modules; "
        "assert repro.qos.cbq is sys.modules['repro.qos.cbq']"
    )
    assert done.returncode == 0, done.stderr


def test_enable_names_an_unknown_option_before_telemetry_is_imported():
    done = _run(
        "from repro.obs import runtime; assert 'repro.obs.telemetry' not in sys.modules\n"
        "try:\n    runtime.enable(bogus=1)\nexcept TypeError as exc:\n    print(exc)"
    )
    assert done.returncode == 0, done.stderr
    assert "'bogus'" in done.stdout


@pytest.mark.parametrize("name", PACKAGES)
def test_every_listed_name_is_its_submodules_object(name: str):
    pkg = importlib.import_module(f"repro.{name}")
    subs = [
        importlib.import_module(f"{pkg.__name__}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    assert pkg.__all__
    for attr in pkg.__all__:
        value = getattr(pkg, attr)
        assert any(getattr(sub, attr, None) is value for sub in subs), attr
        assert attr in dir(pkg)
    star: dict = {}
    exec(f"from {pkg.__name__} import *", star)
    assert set(pkg.__all__) <= set(star)
    with pytest.raises(AttributeError, match=pkg.__name__):
        getattr(pkg, "no_such_name")
