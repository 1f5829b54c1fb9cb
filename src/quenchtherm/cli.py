"""Configuration-driven command-line front end.

Subcommands:
  run      one quench, ledger printed as structured text
  sweep    parameter sweep with paired engine/oracle columns, CSV + summary
  audit    seeded random-Hamiltonian invariant suites, pass/fail report
  compare  engine-vs-oracle ledger diff on seeded random parameter grids

Configs are INI files (key = value with [section] headers).  Exit codes:
0 success, 1 invariant or tolerance failure, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .audits import DEFAULT_TOLERANCES, random_two_spin_params, run_invariant_audit
from .errors import QuenchThermError
from .operators import Operator
from .quench import (
    INTERACTION_QUENCH,
    SYSTEM_QUENCH,
    GENERAL_QUENCH,
    VIOLATION_THRESHOLD,
    QuenchSpec,
    ThermoLedger,
    _sweep_ledger,
    run_quench,
    run_sweep,
)
from .thermo import embed_reservoir, embed_system
from .twospin import (
    TwoSpinParams,
    interaction_quench_ledger,
    reservoir_hamiltonian,
    system_quench_ledger,
    two_spin_hamiltonian,
    two_spin_matrices,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

DEFAULT_TOL = {
    "oracle_match_rel": 1e-8,
    "oracle_match_abs": 1e-10,
}

#: Tolerance names each subcommand accepts from --tol and [tolerances]
TOLERANCE_TABLES = {
    "run": {},
    "sweep": DEFAULT_TOL,
    "compare": DEFAULT_TOL,
    "audit": DEFAULT_TOLERANCES,
}

FMT = "%.17g"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str
    model: str = "two_spin"
    quench: str = SYSTEM_QUENCH
    beta: float = 1.0
    seed: int = 1
    count: int = 100
    parameters: dict[str, float] = field(default_factory=dict)
    sweep_variable: str = ""
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_count: int = 0
    output_path: str = ""
    tolerances: dict[str, float] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    space: tuple[int, int] = (2, 2)


def _parse_matrix(text: str, side: int) -> np.ndarray:
    entries = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    if len(entries) != side * side:
        raise ConfigError(
            f"matrix needs {side * side} row-major entries, got {len(entries)}"
        )
    return np.array(entries, dtype=complex).reshape(side, side)


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        run = parser["run"]
        cfg = RunConfig(
            mode=run.get("mode", "run"),
            model=run.get("model", "two_spin"),
            quench=run.get("quench", SYSTEM_QUENCH),
            beta=run.getfloat("beta", 1.0),
            seed=run.getint("seed", 1),
            count=run.getint("count", 100),
        )
        if cfg.mode not in ("run", "sweep", "audit", "compare"):
            raise ConfigError(f"unknown mode {cfg.mode!r}")
        if cfg.model not in ("two_spin", "custom_matrix"):
            raise ConfigError(f"unknown model {cfg.model!r}")
        if cfg.quench not in (SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH):
            raise ConfigError(f"unknown quench kind {cfg.quench!r}")
        if not 0 < cfg.beta < np.inf:  # NaN fails too
            raise ConfigError(f"beta must be positive and finite, got {cfg.beta}")
        if cfg.count < 1:
            raise ConfigError(f"count must be >= 1, got {cfg.count}")

        if parser.has_section("parameters"):
            cfg.parameters = {
                k: parser.getfloat("parameters", k)
                for k in parser.options("parameters")
            }
        if parser.has_section("sweep"):
            sweep = parser["sweep"]
            cfg.sweep_variable = sweep.get("variable", "")
            cfg.sweep_start = sweep.getfloat("start", 0.0)
            cfg.sweep_stop = sweep.getfloat("stop", 0.0)
            cfg.sweep_count = sweep.getint("count", 0)
        if parser.has_section("output"):
            cfg.output_path = parser["output"].get("path", "")
        if parser.has_section("tolerances"):
            cfg.tolerances = {
                k: parser.getfloat("tolerances", k)
                for k in parser.options("tolerances")
            }
        if parser.has_section("space"):
            cfg.space = (
                parser.getint("space", "d_s"),
                parser.getint("space", "d_r"),
            )
        if parser.has_section("matrices"):
            d_s, d_r = cfg.space
            sides = {
                "h_s_a": d_s, "h_s_b": d_s, "h_s": d_s, "h_r": d_r,
                "v": d_s * d_r, "h_sur_a": d_s * d_r, "h_sur_b": d_s * d_r,
            }
            for key in parser.options("matrices"):
                if key not in sides:
                    raise ConfigError(f"unknown matrix key {key!r}")
                cfg.matrices[key] = _parse_matrix(
                    parser.get("matrices", key), sides[key]
                )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return cfg


def _require(cfg: RunConfig, *names: str) -> list[float]:
    out = []
    for name in names:
        if name not in cfg.parameters:
            raise ConfigError(f"missing parameter {name!r}")
        out.append(cfg.parameters[name])
    return out


def _two_spin_sweep(kind: str, params, beta: float, values: np.ndarray):
    """(H_A, stack of post-quench H_B, H_R, oracle) of two-spin quenches.

    `params` is (epsilon, alpha, gamma, chi).  A system quench starts from
    them and sets epsilon to each of `values`; an interaction quench starts
    from gamma = chi = 0 and switches on gamma = value and chi.  `oracle(v)`
    is the closed-form ledger at value v, evaluated only when called: it
    stays per point and scalar, independent of the engine.
    """
    eps, alpha, gamma, chi = params
    if kind == SYSTEM_QUENCH:
        p_a = TwoSpinParams(eps, alpha, gamma, chi, beta)
        h_b = two_spin_matrices(values, alpha, gamma, chi)

        def oracle(v: float) -> ThermoLedger:
            return system_quench_ledger(p_a, v)
    else:
        p_a = TwoSpinParams(eps, alpha, 0.0, 0.0, beta)
        h_b = two_spin_matrices(eps, alpha, values, chi)

        def oracle(v: float) -> ThermoLedger:
            return interaction_quench_ledger(eps, alpha, v, chi, beta)
    return two_spin_hamiltonian(p_a), h_b, reservoir_hamiltonian(p_a), oracle


def _two_spin_config(cfg: RunConfig, values: np.ndarray):
    """`_two_spin_sweep` with the model parameters of a two_spin config."""
    if not np.all(np.isfinite(values)):
        raise ConfigError("sweep values must be finite")
    if cfg.quench == SYSTEM_QUENCH:
        params = _require(cfg, "epsilon_a", "alpha", "gamma", "chi")
    elif cfg.quench == INTERACTION_QUENCH:
        eps, alpha, chi_b = _require(cfg, "epsilon", "alpha", "chi_b")
        params = (eps, alpha, 0.0, chi_b)
    else:
        raise ConfigError("two_spin quenches are system or interaction quenches")
    return _two_spin_sweep(cfg.quench, params, cfg.beta, values)


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`; on failure print `write failure: ...` and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"write failure: {exc}", file=sys.stderr)
        return False
    return True


def _bits(flags) -> list[str]:
    return ["1" if f else "0" for f in flags]


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.model != "two_spin":
        raise ConfigError("sweep mode requires the two_spin model")
    if cfg.sweep_count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {cfg.sweep_count}")
    if cfg.sweep_start == cfg.sweep_stop:
        raise ConfigError("sweep start and stop must differ")
    if not cfg.output_path:
        raise ConfigError("sweep mode needs an output path")

    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    h_a, h_b, h_r, oracle = _two_spin_config(cfg, grid)
    columns = _sweep_ledger(h_a, h_b, h_r, cfg.beta, cfg.quench)
    oracles = [oracle(v) for v in grid.tolist()]

    fields = ThermoLedger.FIELDS
    eng = np.column_stack([getattr(columns, name) for name in fields])
    ora = np.array(list(map(attrgetter(*fields), oracles)))
    header = ["value", *(f"{side}_{name}" for name in fields for side in ("eng", "ora")),
              *(f"flag_{kind}_{name}" for kind in "wq" for name in ("diff", "hstar", "estar"))]
    # value, engine and oracle interleaved, then the flags: one template
    # formats the whole table
    cells = np.column_stack([grid, np.stack([eng, ora], axis=-1).reshape(len(grid), -1),
                             *columns.second_law_w, *columns.second_law_q])
    row = ",".join([FMT] * (1 + 2 * len(fields)) + ["%d"] * 6) + "\n"
    rows = (row * len(grid)) % tuple(cells.ravel().tolist())

    # NaN propagates through these reductions, so a non-finite engine or
    # oracle value shows in the summary and fails the gate below
    max_diff = np.abs(eng - ora).max(axis=0)
    scale = np.abs(ora).max(axis=0)
    diss_cols = [fields.index(name) for name in ("diss_diff", "diss_hstar", "diss_estar")]
    min_diss = eng[:, diss_cols].min(axis=0)
    # runs of violating points: a run starts and ends where the mask, padded
    # with False at both ends, changes value
    violating = eng[:, fields.index("diss_estar")] < -VIOLATION_THRESHOLD
    edges = np.flatnonzero(np.diff(np.concatenate(([False], violating, [False]))))

    if not _write(cfg.output_path, ",".join(header) + "\n" + rows):
        return EXIT_TOLERANCE

    summary = [f"sweep variable={cfg.sweep_variable or cfg.quench} "
               f"points={cfg.sweep_count} range=[{FMT % cfg.sweep_start},"
               f"{FMT % cfg.sweep_stop}]"]
    failed = False
    for name, v in zip(fields, max_diff.tolist()):
        summary.append(f"max_abs_diff {name} = {FMT % v}")
    for name, v in zip(("diss_diff", "diss_hstar", "diss_estar"), min_diss.tolist()):
        summary.append(f"min {name} = {FMT % v}")
    for start, end in edges.reshape(-1, 2).tolist():
        summary.append(f"diss_estar_violation [{FMT % grid[start]}, {FMT % grid[end - 1]}]")

    # oracle mismatch gate: each field must track the oracle on the whole grid
    limits = cfg.tolerances["oracle_match_abs"] + cfg.tolerances["oracle_match_rel"] * scale
    for name, diff, limit in zip(fields, max_diff.tolist(), limits.tolist()):
        if not np.isfinite(diff):
            summary.append(f"ORACLE MISMATCH {name}: non-finite engine or oracle value")
            failed = True
        elif diff > limit:
            summary.append(f"ORACLE MISMATCH {name}: {diff:.3e} > {limit:.3e}")
            failed = True

    summary_text = "\n".join(summary) + "\n"
    print(summary_text, end="")
    if not _write(cfg.output_path + ".summary.txt", summary_text):
        return EXIT_TOLERANCE
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    report = run_invariant_audit(cfg.seed, n_quenches=cfg.count,
                                 tolerances=cfg.tolerances)
    text = "\n".join(report.lines()) + "\n"
    print(text, end="")
    if cfg.output_path and not _write(cfg.output_path, text):
        return EXIT_TOLERANCE
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_compare(cfg: RunConfig) -> int:
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    worst_desc = ""
    for kind in (SYSTEM_QUENCH, INTERACTION_QUENCH):
        for _ in range(cfg.count):
            p = random_two_spin_params(rng)
            value = float(rng.uniform(-2, 2)) if kind == SYSTEM_QUENCH else p.gamma
            h_a, h_b, h_r, oracle = _two_spin_sweep(
                kind, (p.epsilon, p.alpha, p.gamma, p.chi), p.beta, np.array([value]))
            eng = run_sweep(h_a, h_b, h_r, p.beta, kind)[0].numeric_fields()
            ora = oracle(value).numeric_fields()
            for name in ThermoLedger.FIELDS:
                limit = tol["oracle_match_abs"] + tol["oracle_match_rel"] * abs(ora[name])
                diff = abs(eng[name] - ora[name])
                # a zero limit admits only an exact match
                excess = diff / limit if limit else (np.inf if diff else 0.0)
                if excess > worst:
                    worst = excess
                    worst_desc = f"{kind}:{name}"
    print(f"compare seed={cfg.seed} points={cfg.count} per kind")
    print(f"worst tolerance fraction = {FMT % worst} at {worst_desc}")
    status = worst <= 1.0
    print("RESULT " + ("PASS" if status else "FAIL"))
    return EXIT_OK if status else EXIT_TOLERANCE


def _custom_spec(cfg: RunConfig) -> QuenchSpec:
    d_s, d_r = cfg.space
    m = cfg.matrices

    def op(key, dims):
        if key not in m:
            raise ConfigError(f"custom_matrix model needs matrix {key!r}")
        return Operator(m[key], dims)

    h_r = op("h_r", (d_r,))
    if cfg.quench == SYSTEM_QUENCH:
        v = op("v", (d_s, d_r))
        h_a = embed_system(op("h_s_a", (d_s,)), d_r) + embed_reservoir(h_r, d_s) + v
        h_b = embed_system(op("h_s_b", (d_s,)), d_r) + embed_reservoir(h_r, d_s) + v
    elif cfg.quench == INTERACTION_QUENCH:
        v = op("v", (d_s, d_r))
        h_a = embed_system(op("h_s", (d_s,)), d_r) + embed_reservoir(h_r, d_s)
        h_b = h_a + v
    else:
        h_a = op("h_sur_a", (d_s, d_r))
        h_b = op("h_sur_b", (d_s, d_r))
    try:
        return QuenchSpec(h_a, h_b, h_r, cfg.beta, kind=cfg.quench)
    except QuenchThermError as exc:
        raise ConfigError(f"custom_matrix quench: {exc}") from exc


def cmd_run(cfg: RunConfig) -> int:
    if cfg.model == "two_spin":
        name = "epsilon_b" if cfg.quench == SYSTEM_QUENCH else "gamma_b"
        h_a, h_b, h_r, _ = _two_spin_config(cfg, np.array(_require(cfg, name)))
        spec = QuenchSpec(h_a, Operator(h_b[0], h_a.dims), h_r, cfg.beta, kind=cfg.quench)
    else:
        spec = _custom_spec(cfg)
    ledger = run_quench(spec)
    lines = [f"{name} = {FMT % value}"
             for name, value in ledger.numeric_fields().items()]
    for name, flags in (("second_law_w", ledger.second_law_w),
                        ("second_law_q", ledger.second_law_q)):
        if flags is not None:
            lines.append(f"{name} = " + " ".join(_bits(flags)))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if cfg.output_path and not _write(cfg.output_path, text):
        return EXIT_TOLERANCE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quenchtherm",
        description="strong-coupling quench thermodynamics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "audit", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "audit"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        else:
            cfg = RunConfig(mode="audit")
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_path = args.out
        for item in args.tol:
            if "=" not in item:
                raise ConfigError(f"bad --tol override {item!r}")
            name, _, value = item.partition("=")
            cfg.tolerances[name] = float(value)
        known = TOLERANCE_TABLES[args.command]
        for name, value in cfg.tolerances.items():
            if name not in known:
                raise ConfigError(
                    f"unknown tolerance {name!r} for {args.command}; known: "
                    f"{', '.join(sorted(known)) or 'none'}"
                )
            if not 0 <= value < np.inf:  # NaN fails too; it would pass every gate
                raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {value}")
        cfg.tolerances = {**known, **cfg.tolerances}  # a new dict: the tables stay as they are
        handler = {
            "run": cmd_run, "sweep": cmd_sweep,
            "audit": cmd_audit, "compare": cmd_compare,
        }[args.command]
        return handler(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
