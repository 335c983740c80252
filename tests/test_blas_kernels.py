"""Printed steering numbers do not depend on which OpenBLAS kernels numpy runs.

OpenBLAS picks its kernels by CPU at load time, and ``OPENBLAS_CORETYPE``
overrides the pick.  A small driver calls ``cli.main`` for the README
``steer`` commands and both ``steer --a2 0.5:1.0:0.01`` sweeps, once per
kernel setting, each in its own child process; the variable acts only on
the child.  Every setting the CPU can run must print the same bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teleportsim import cli

ROOT = Path(__file__).parents[1]
COMMANDS = [
    *re.findall(r"^teleportsim (steer .+)$", (ROOT / "README.md").read_text(), re.M),
    "steer --a2 0.5:1.0:0.01 --basis diagonal",
    "steer --a2 0.5:1.0:0.01 --basis rectilinear",
]

# kernel setting -> the CPU flag it needs
CORETYPES = {"Prescott": "sse3", "Haswell": "avx2", "SkylakeX": "avx512f"}

# Runs each argv given on its command line, then prints the kernel set that
# OpenBLAS reports (if the library exposes its core name) to stderr.
DRIVER = """
import ctypes, sys
from teleportsim import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0
path = next((line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line), None)
lib = ctypes.CDLL(path) if path else None
for name in ("openblas_get_corename", "scipy_openblas_get_corename64_"):
    if lib is not None and hasattr(lib, name):
        getattr(lib, name).restype = ctypes.c_char_p
        print(getattr(lib, name)().decode(), file=sys.stderr)
        break
"""


def _blas_name():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def _cpu_flags():
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


@pytest.mark.skipif("openblas" not in _blas_name(), reason="numpy's BLAS is not OpenBLAS")
def test_steer_output_independent_of_openblas_kernels():
    runnable = [core for core, flag in CORETYPES.items() if flag in _cpu_flags()]
    if len(runnable) < 2:
        pytest.skip("fewer than two OpenBLAS kernel settings run on this CPU")
    src = str(Path(cli.__file__).parents[1])
    runs = {}
    for core in runnable:
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs[core] = subprocess.run([sys.executable, "-c", DRIVER, *COMMANDS], env=env,
                                    capture_output=True, text=True, check=True)
    reported = [run.stderr.strip() for run in runs.values()]
    if all(reported):  # the setting reached OpenBLAS: each child ran other kernels
        assert len(set(reported)) == len(reported)
    assert len(COMMANDS) == 4
    outputs = {core: run.stdout for core, run in runs.items()}
    assert all(out == outputs[runnable[0]] for out in outputs.values()), outputs.keys()
