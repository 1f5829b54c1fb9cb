"""The three workloads: one op each, its output check, and its eigh floor.

Each workload drives the package only through its public API or its
in-process CLI.  An op is the timed call; its check runs afterwards, outside
the timer, and decides whether the op passed.  Timed ops draw their inputs
from the part of the target domain where the baseline passes (see
``inputs``).  ``probe_ops`` yields one input per tenth of the whole target
domain and per stream; the traced run runs them untimed, so the baseline's
failures outside that part stay visible.

Failures are classified so a run can tell the baseline's known defects from
new ones.  A failure is *known* when the program signalled it or it belongs
to a defect the ROADMAP already describes (oracle overflow and underflowed
Gibbs weights at large beta * spread):

- a `QuenchThermError`, or the oracle's raw `OverflowError`;
- the CLI's tolerance exit code 1 (its own oracle gate);
- a `second_law_audit` residual over its tolerance;
- non-finite oracle columns in a sweep CSV, which the CLI's gate lets pass.

Anything else is new: another exception, a wrong statics identity,
non-finite engine columns, or CLI bytes that differ on a repeated config.
A new failure marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import quenchtherm as qt
from quenchtherm import cli
from quenchtherm.audits import DEFAULT_TOLERANCES

import inputs

# Bound at import, before any tracer patches numpy: the floor must not be
# counted as program work.
_eigh = np.linalg.eigh

# Input indices of the domain probe, apart from any timed op's; a multiple
# of 6, so probe quenches cycle kinds and modes from the first.
PROBE_BASE = 6 * 10**9


def _probe_x(seed: int, stream: int, k: int) -> float:
    """beta * spread of a stream's k-th probe input, over the whole target domain."""
    return inputs.beta_spread_target(seed, 9000 + stream, k, inputs.TARGET_DOMAIN)


@dataclass
class Outcome:
    passed: bool
    error: str = ""
    known: bool = True
    bytes_out: int = 0
    oracle_err_frac: float = 0.0


@dataclass
class Op:
    """One scheduled op: its input, and the op it repeats, if any."""

    index: int
    payload: object
    kind: str
    beta_spread: float
    repeat_of: int | None = None
    floor_mats: list = field(default_factory=list)


def _exception_outcome(exc: Exception) -> Outcome:
    known = isinstance(exc, (qt.QuenchThermError, OverflowError))
    first_line = str(exc).splitlines()[0] if str(exc) else ""
    return Outcome(False, f"{type(exc).__name__}: {first_line[:120]}", known)


class SweepD4:
    """One in-process `quenchtherm sweep` per op on a seeded 41-point config.

    Ops alternate system and interaction quenches.  In every block of four
    ops, three run new configs and the fourth repeats the interaction config
    from six ops earlier, so byte identity of repeated output is checked
    without letting a result cache serve most ops.
    """

    name = "sweep_d4"
    d_global = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._digests: dict[int, str] = {}
        self._ini_paths: dict[int, str] = {}
        self.out_path = os.path.join(workdir, "sweep.csv")

    def _config_index(self, i: int) -> tuple[int, int | None]:
        block, pos = divmod(i, 4)
        if pos < 3:
            return 3 * block + pos, None
        return 3 * max(block - 1, 0) + 1, 4 * max(block - 1, 0) + 1

    def _op(self, index: int, cfg: inputs.SweepConfig, repeat_of) -> Op:
        path = self._ini_paths.get(cfg.index)
        if path is None:
            path = os.path.join(self.workdir, f"sweep-{cfg.index}.ini")
            with open(path, "w") as fh:
                fh.write(cfg.ini)
            self._ini_paths[cfg.index] = path
        mat_a = inputs.two_spin_matrix(*cfg.params_a)
        floor = [m for p in cfg.params_b for m in (mat_a, inputs.two_spin_matrix(*p))]
        return Op(index, (cfg, path), cfg.kind, cfg.beta_spread, repeat_of, floor)

    def op(self, i: int) -> Op:
        c, repeat_of = self._config_index(i)
        block, pos = divmod(c, 3)
        if pos == 1:
            cfg = inputs.sweep_config(self.seed, c, "interaction", block)
        else:
            cfg = inputs.sweep_config(self.seed, c, "system", 2 * block + pos // 2)
        return self._op(i, cfg, repeat_of)

    def warmup(self) -> Op:
        return self._op(-1, inputs.sweep_config(self.seed, -1, "system", x=1.0), None)

    def probe_ops(self):
        for k in range(inputs.STRATA):
            for s, kind in enumerate(("system", "interaction")):
                i = PROBE_BASE + 2 * k + s
                cfg = inputs.sweep_config(self.seed, i, kind, x=_probe_x(self.seed, s, k))
                yield self._op(i, cfg, None)

    def call(self, op: Op):
        _, path = op.payload
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["sweep", "--config", path, "--out", self.out_path])
        return code, sink.getvalue()

    def check(self, op: Op, result) -> Outcome:
        code, text = result
        cfg, _ = op.payload
        if code not in (0, cli.EXIT_TOLERANCE):
            return Outcome(False, f"exit {code}: {text.strip()[-160:]}", known=False)
        outputs = (self.out_path, self.out_path + ".summary.txt")
        csv_bytes, summary = (_read_and_remove(path) for path in outputs)
        digest = hashlib.sha256(csv_bytes + b"\0" + summary).hexdigest()
        first = self._digests.setdefault(cfg.index, digest)
        n_bytes = len(csv_bytes) + len(summary) + len(text.encode())
        if first != digest:
            return Outcome(False, "CSV or summary bytes differ on a repeated config",
                           known=False, bytes_out=n_bytes)
        if code != 0:
            lines = [ln for ln in text.splitlines() if "MISMATCH" in ln]
            detail = lines[0] if lines else text.strip()[-160:]
            return Outcome(False, f"exit {code}: {detail}", bytes_out=n_bytes)
        eng, ora = _ledger_columns(csv_bytes)
        for name, cols in (("engine", eng), ("oracle", ora)):
            if not np.isfinite(cols).all():
                return Outcome(False, f"exit 0 with non-finite {name} values",
                               known=(name == "oracle"), bytes_out=n_bytes)
        tol = cli.DEFAULT_TOL
        frac = np.abs(eng - ora) / (tol["oracle_match_abs"]
                                    + tol["oracle_match_rel"] * np.abs(ora))
        return Outcome(True, bytes_out=n_bytes, oracle_err_frac=float(frac.max()))


def _read_and_remove(path: str) -> bytes:
    # removed so that a later op that writes nothing cannot be checked
    # against this op's output
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def _ledger_columns(csv_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The engine and oracle ledger columns of a sweep CSV, paired by field."""
    lines = csv_bytes.decode().splitlines()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    eng = [j for j, name in enumerate(header) if name.startswith("eng_")]
    ora = [header.index("ora_" + header[j][4:]) for j in eng]
    return table[:, eng], table[:, ora]


class QuenchD128:
    """`QuenchSpec` + `run_quench` + `second_law_audit` on a fresh quench.

    d_s = 4 and d_r = 32; no two ops share a Hamiltonian, so a cache keyed on
    inputs is never hit.
    """

    name = "quench_d128"
    d_s, d_r = 4, 32
    d_global = d_s * d_r

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _op(self, index: int, inp: inputs.QuenchInput) -> Op:
        return Op(index, inp, f"{inp.kind}/{inp.final_mode}", inp.beta_spread,
                  floor_mats=[inp.h_a, inp.h_b])

    def op(self, i: int) -> Op:
        return self._op(i, inputs.quench_input(self.seed, i, self.d_s, self.d_r))

    def warmup(self) -> Op:
        return self._op(-1, inputs.quench_input(self.seed, -1, self.d_s, self.d_r, x=1.0))

    def probe_ops(self):
        # one stream per kind; final modes alternate between its inputs
        for k in range(inputs.STRATA):
            for s in range(3):
                i = PROBE_BASE + 3 * k + s
                x = _probe_x(self.seed, s, k)
                yield self._op(i, inputs.quench_input(self.seed, i, self.d_s, self.d_r, x=x))

    def call(self, op: Op):
        inp = op.payload
        spec = qt.QuenchSpec(
            qt.Operator(inp.h_a, inp.dims), qt.Operator(inp.h_b, inp.dims),
            qt.Operator(inp.h_r, (inp.dims[1],)), inp.beta,
            kind=inp.kind, final_mode=inp.final_mode, t_f=inp.t_f,
        )
        ledger = qt.run_quench(spec)
        return ledger, qt.second_law_audit(spec, ledger)

    def check(self, op: Op, result) -> Outcome:
        _, audit = result
        for name, value in (("relative_entropy_diff", audit.residual_diff),
                            ("relative_entropy_hstar", audit.residual_hstar)):
            if not value <= DEFAULT_TOLERANCES[name]:
                return Outcome(False, f"{name} residual {value:.3e}")
        return Outcome(True)


class StaticsD16:
    """The thermo statics of the audit suites on one H with d_s = 2, d_r = 8."""

    name = "statics_d16"
    d_s, d_r = 2, 8
    d_global = d_s * d_r

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _op(self, index: int, inp: inputs.StaticsInput) -> Op:
        return Op(index, inp, "statics", inp.beta_spread, floor_mats=[inp.h])

    def op(self, i: int) -> Op:
        return self._op(i, inputs.statics_input(self.seed, i, self.d_s, self.d_r))

    def warmup(self) -> Op:
        return self._op(-1, inputs.statics_input(self.seed, -1, self.d_s, self.d_r, x=1.0))

    def probe_ops(self):
        for k in range(inputs.STRATA):
            i = PROBE_BASE + k
            x = _probe_x(self.seed, 0, k)
            yield self._op(i, inputs.statics_input(self.seed, i, self.d_s, self.d_r, x=x))

    def call(self, op: Op):
        inp = op.payload
        beta = inp.beta
        h = qt.Operator(inp.h, inp.dims)
        h_r = qt.Operator(inp.h_r, (inp.dims[1],))
        ens = qt.gibbs(h, beta)
        bundle = qt.mean_force_bundle(h, h_r, beta)
        log_z = (qt.log_partition(h, beta), qt.log_partition(bundle.h_star, beta),
                 qt.log_partition(h_r, beta))
        rho_s = qt.DensityMatrix(qt.partial_trace(ens.state.op, "S"))
        rebuilt = qt.gibbs(bundle.h_star, beta).state
        u_diff = qt.internal_energy_diff(ens.state, h, h_r, beta)
        u_estar = qt.internal_energy_estar(rho_s, bundle.e_star)
        return log_z, rho_s.matrix, rebuilt.matrix, u_diff, u_estar

    def check(self, op: Op, result) -> Outcome:
        (lz_sur, lz_star, lz_r), rho_s, rebuilt, u_diff, u_estar = result
        residuals = {
            "factorization": abs(lz_sur - lz_star - lz_r),
            "reduced_state": float(np.max(np.abs(rho_s - rebuilt))),
            "gibbs_estar_diff": abs(u_diff - u_estar),
        }
        for name, value in residuals.items():
            if not value <= DEFAULT_TOLERANCES[name]:
                return Outcome(False, f"{name} residual {value:.3e}", known=False)
        return Outcome(True)


WORKLOADS = {w.name: w for w in (SweepD4, QuenchD128, StaticsD16)}


def execute(workload, op: Op):
    """Run one op; returns (seconds in the program, outcome)."""
    t0 = perf_counter()
    try:
        result = workload.call(op)
    except Exception as exc:  # the op boundary: any failure is recorded
        t1 = perf_counter()
        return t1 - t0, _exception_outcome(exc)
    t1 = perf_counter()
    return t1 - t0, workload.check(op, result)


def floor_seconds(op: Op) -> float:
    """Bare `np.linalg.eigh` of the op's pre- and post-quench Hamiltonians."""
    t0 = perf_counter()
    for mat in op.floor_mats:
        _eigh(mat)
    return perf_counter() - t0
