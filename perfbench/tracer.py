"""Span tracer installed around the package's public functions.

`Tracer.install` rebinds each traced function in every `quenchtherm` module
namespace that holds it (so `quench.gibbs`, `cli.run_quench` and the package
namespace are all covered), patches methods on their classes, and patches
`numpy.linalg.eigh` / `eigvalsh`, which the package looks up at call time.
`uninstall` restores every original.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
while the run goes and are summarised and written out at the end.  Self time
is a span's duration minus the time covered by its direct children; since the
program is single-threaded, children never overlap.  An `eigh` counts as
global when its matrix side equals the workload's joint dimension D.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from quenchtherm import cli, operators, quench, thermo, twospin

EIGH_GLOBAL = "numpy.eigh.global"
EIGH_SMALL = "numpy.eigh.small"
EIGVALSH = "numpy.eigvalsh"
OPERATOR_NEW = "operators.Operator.new"

# Names whose spans nest inside each other and share one inclusive figure.
_VALIDATION = {"operators.require_hermitian", "operators.DensityMatrix.check"}
_GROUP_OF = {name: _VALIDATION for name in _VALIDATION}

# (owner, attribute, span name); functions are rebound wherever imported
_FUNCTIONS = (
    (operators, "partial_trace", "operators.partial_trace"),
    (thermo, "gibbs", "thermo.gibbs"),
    (thermo, "log_partition", "thermo.log_partition"),
    (thermo, "mean_force_hamiltonian", "thermo.mean_force_hamiltonian"),
    (thermo, "effective_energy_operator", "thermo.effective_energy_operator"),
    (quench, "run_quench", "quench.run_quench"),
    (quench, "second_law_audit", "quench.second_law_audit"),
    (quench, "relative_entropy", "quench.relative_entropy"),
    (quench, "evolve_unitary", "quench.evolve_unitary"),
    (twospin, "system_quench_ledger", "twospin.system_quench_ledger"),
    (twospin, "interaction_quench_ledger", "twospin.interaction_quench_ledger"),
    (twospin, "two_spin_hamiltonian", "twospin.two_spin_hamiltonian"),
    (twospin, "reservoir_hamiltonian", "twospin.reservoir_hamiltonian"),
    (cli, "main", "cli.main"),
)
_METHODS = (
    (operators.Operator, "require_hermitian", "operators.require_hermitian"),
    (operators.DensityMatrix, "__post_init__", "operators.DensityMatrix.check"),
    (quench.QuenchSpec, "__post_init__", "quench.QuenchSpec.check"),
)


class Tracer:
    def __init__(self, d_global: int):
        self.d_global = d_global
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ix = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_ix = array("l")
        self._stack: list[int] = []
        self.news: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_ix.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_ix.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_eigh(self, fn):
        global_id, small_id = self._intern(EIGH_GLOBAL), self._intern(EIGH_SMALL)

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            side = np.shape(a)[-1]
            idx = self._open(global_id if side == self.d_global else small_id)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_new(self, fn):
        @functools.wraps(fn)
        def counted(obj):
            self.news[self.op] += 1
            return fn(obj)

        return counted

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quenchtherm" or key.startswith("quenchtherm.")]
        for owner, attr, name in _FUNCTIONS:
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for cls, attr, name in _METHODS:
            self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._set(operators.Operator, "__post_init__",
                  self._wrap_new(operators.Operator.__post_init__))
        self._set(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh))
        self._set(np.linalg, "eigvalsh", self._wrap(EIGVALSH, np.linalg.eigvalsh))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries --------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: call counts, inclusive ms per name, and self ms per name.

        Inclusive time of a name counts only spans with no ancestor of the
        same name group, so nested validation is not counted twice.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(self.op_ix[i], Counter())
            name = self.names[self.name_ix[i]]
            dur = self.end[i] - self.start[i]
            rec["calls:" + name] += 1
            rec["self_ms:" + name] += 1e3 * (dur - child[i])
            if not self._has_ancestor_in(i, _GROUP_OF.get(name, {name})):
                rec["incl_ms:" + name] += 1e3 * dur
        for op, count in self.news.items():
            out.setdefault(op, Counter())["calls:" + OPERATOR_NEW] += count
        return out

    def _has_ancestor_in(self, i: int, group: set[str]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[self.name_ix[p]] in group:
                return True
            p = self.parent[p]
        return False

    def write_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_ix[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op_ix[i]}\n")
