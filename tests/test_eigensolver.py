"""Printed numbers do not depend on which eigensolver built them.

numpy's ``eigh``, ``eigvalsh`` and ``svd`` are replaced by wrappers that
return another valid answer, as a different LAPACK build might: every
eigenvector and singular-vector pair gets a random phase, and every entry
is moved by a few ulps.  Each command below must then print the same bytes
as with the plain solvers.
"""

import contextlib
import io

import numpy as np
import pytest

from teleportsim import cli

COMMANDS = [
    "teleport --trials 500 --seed 1",
    "naive --a2 0.5:1.0:0.1",
    "conclusive --a2 0.8 --trials 100000 --seed 7",
    "quasi --p 0.5 --n 4",
    "quasi --p 0.5 --epsilon 0.01",
    "steer --a2 0.8",
    "steer --alpha-re 0.6 --beta-re 0.8",
    "steer --a2 0.5:1.0:0.01 --basis diagonal",
    "steer --a2 0.5:1.0:0.01 --basis rectilinear",
    "povm-check --alpha-re 1 --beta-re 0 --a2 0.8",
    "povm-check --a2 0.5:1.0:0.01",
]

_eigh, _eigvalsh, _svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd


def _nudge(x, rng):
    """Every entry moved by up to four ulps, real and imaginary parts apart."""
    def move(part):
        return part + rng.integers(-4, 5, size=part.shape) * np.spacing(np.abs(part))

    if np.iscomplexobj(x):
        return move(x.real) + 1j * move(x.imag)
    return move(x)


def _phases(n, dtype, rng):
    if np.issubdtype(dtype, np.complexfloating):
        return np.exp(2j * np.pi * rng.random(n))
    return rng.choice([-1.0, 1.0], size=n)


def other_solvers(rng):
    """eigh, eigvalsh and svd that answer like another LAPACK build."""

    def eigh(a, *args, **kwargs):
        w, v = _eigh(a, *args, **kwargs)
        return _nudge(w, rng), _nudge(v * _phases(v.shape[-1], v.dtype, rng), rng)

    def eigvalsh(a, *args, **kwargs):
        return _nudge(_eigvalsh(a, *args, **kwargs), rng)

    def svd(a, *args, **kwargs):
        out = _svd(a, *args, **kwargs)
        if not isinstance(out, tuple):  # compute_uv=False
            return _nudge(out, rng)
        u, s, vh = out
        ph = _phases(s.shape[-1], u.dtype, rng)
        return _nudge(u * ph, rng), _nudge(s, rng), _nudge(ph.conj()[:, None] * vh, rng)

    return {"eigh": eigh, "eigvalsh": eigvalsh, "svd": svd}


def stdout_of(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(command.split()) == 0
    return buf.getvalue()


def test_wrapped_solvers_still_decompose():
    rng = np.random.default_rng(11)
    solvers = other_solvers(rng)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = z + z.conj().T
    w, v = solvers["eigh"](h)
    assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-13
    assert np.max(np.abs(solvers["eigvalsh"](h) - w)) < 1e-13
    u, s, vh = solvers["svd"](z)
    assert np.max(np.abs((u * s) @ vh - z)) < 1e-13


@pytest.mark.parametrize("command", COMMANDS)
def test_output_independent_of_eigensolver(command, monkeypatch):
    plain = stdout_of(command)
    for name, solver in other_solvers(np.random.default_rng(2718)).items():
        monkeypatch.setattr(np.linalg, name, solver)
    assert stdout_of(command) == plain
