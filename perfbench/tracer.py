"""Per-layer tracing from outside the program.

Wraps every public function, public method and ``__post_init__`` defined in
the six teleportsim modules and keeps, per wrapped name, the number of calls
and the self time: the span's duration minus the time its traced children
took. Nothing in the package is edited; the wrappers are
installed by attribute assignment and removed again by ``uninstall``.

Two details keep the wrapped program identical to the plain one:

* a function is replaced at every module that bound it with ``from .x
  import f`` (``protocols.kron``, ``cli.fidelity``, the package namespace),
  not only at its home module;
* classes are never rebound, only their ``__post_init__`` and methods, so
  ``isinstance`` dispatch in ``standard_teleport`` and ``fidelity`` still
  sees the original classes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "teleportsim"
MODULES = ("linalg", "states", "povm", "steering", "protocols", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._child_time: list[float] = []  # one accumulator per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            label = "init" if attr == "__post_init__" else attr
            if label.startswith("_"):
                continue
            name = f"{prefix}.{cls.__name__}.{label}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def install(self) -> "Tracer":
        mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif inspect.isfunction(obj):
                    traced = self._wrap(f"{short}.{attr}", obj)
                    for site in sites:
                        for bound, value in list(vars(site).items()):
                            if value is obj:
                                self._set(site, bound, traced)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def module_self_s(self, short: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.startswith(short + "."))
