"""Printed analytic numbers do not depend on which BLAS or SIMD kernels numpy runs.

OpenBLAS picks its kernels by CPU at load time, and ``OPENBLAS_CORETYPE``
overrides the pick; numpy picks its SIMD loops by CPU at import, and
``NPY_DISABLE_CPU_FEATURES`` switches its dispatch targets off.  A small
driver calls ``cli.main`` for the README ``naive``, ``quasi`` (both modes),
``steer`` and ``povm-check`` commands and one full-range sweep of each, in
one child process per kernel setting; the variables act only on the child.
The settings are: none, each OpenBLAS kernel set the CPU runs, and every
dispatch target numpy found switched off.  Every setting must print the
same bytes.

``teleport`` and ``conclusive`` stay out: their rows still move with the
kernels, through the BLAS ``np.vecdot`` in ``haar_random_amplitudes`` and
the complex multiply that numpy fuses when it builds the input projector in
``TransferMaps.evaluate``.  They join once both are mended.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from teleportsim import cli

ROOT = Path(__file__).parents[1]
COMMANDS = [
    *re.findall(r"^teleportsim ((?:naive|quasi|steer|povm-check) .+)$",
                (ROOT / "README.md").read_text(), re.M),
    "naive --a2 0.5:1.0:0.01",
    "quasi --p 0.01:0.99:0.01 --n 4",
    "quasi --p 0.01:0.99:0.01 --epsilon 0.01",
    "steer --a2 0.5:1.0:0.01 --basis diagonal",
    "steer --a2 0.5:1.0:0.01 --basis rectilinear",
    "povm-check --a2 0.5:1.0:0.01",
]

# kernel setting -> the /proc/cpuinfo flag it needs (the kernel lists SSE3 as pni)
CORETYPES = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}

# Runs each argv given on its command line, then reports on its last stderr
# line the kernel set that OpenBLAS names (if the library exposes it) and
# the numpy dispatch targets left on.
DRIVER = """
import ctypes, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from teleportsim import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0
path = next((line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line), None)
lib = ctypes.CDLL(path) if path else None
core = None
for name in ("openblas_get_corename", "scipy_openblas_get_corename64_"):
    if lib is not None and hasattr(lib, name):
        getattr(lib, name).restype = ctypes.c_char_p
        core = getattr(lib, name)().decode()
        break
simd = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
print(json.dumps({"core": core, "simd": simd}), file=sys.stderr)
"""


def _blas_name():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def _cpu_flags():
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


def _settings():
    """Environment overrides, one child each, besides the child with none."""
    out = {}
    if "openblas" in _blas_name():
        out.update({core: {"OPENBLAS_CORETYPE": core}
                    for core, flag in CORETYPES.items() if flag in _cpu_flags()})
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    if found:
        out["no SIMD dispatch"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    return out


def test_analytic_output_independent_of_blas_and_simd_kernels():
    settings = _settings()
    if not settings:
        pytest.skip("no OpenBLAS kernel set or numpy dispatch target to switch on this CPU")
    src = str(Path(cli.__file__).parents[1])
    runs = {}
    for name, overrides in {"default": {}, **settings}.items():
        env = dict(os.environ, **overrides,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs[name] = subprocess.run([sys.executable, "-c", DRIVER, *COMMANDS], env=env,
                                    capture_output=True, text=True, check=True)
    reports = {name: json.loads(run.stderr.splitlines()[-1]) for name, run in runs.items()}
    cores = [reports[name]["core"] for name in settings if name in CORETYPES]
    if all(cores):  # the setting reached OpenBLAS: each child ran other kernels
        assert len(set(cores)) == len(cores)
    if "no SIMD dispatch" in reports:
        assert reports["no SIMD dispatch"]["simd"] == []
    assert len(COMMANDS) == 12
    outputs = {name: run.stdout for name, run in runs.items()}
    assert all(out == outputs["default"] for out in outputs.values()), outputs.keys()
