"""Configuration-driven command-line front end.

Subcommands:
  run      one quench, ledger printed as structured text
  sweep    parameter sweep with paired engine/oracle columns, CSV + summary
  audit    seeded random-Hamiltonian invariant suites, pass/fail report
  compare  engine-vs-oracle ledger diff on seeded random parameter grids

Configs are INI files (key = value with [section] headers); the subcommand is
the mode, and the quench kind names the swept parameter.  A subcommand accepts
only the names, tolerances and --seed it reads (`_READS`, which also holds each
name's default).  Each command prints
its report and writes it to --out or [output] path when one is set.  Exit
codes: 0 success, 1 invariant or tolerance failure or failed write, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .audits import DEFAULT_TOLERANCES, random_two_spin_params, run_invariant_audit
from .errors import QuenchThermError
from .operators import Operator
from .quench import (
    INTERACTION_QUENCH,
    SYSTEM_QUENCH,
    GENERAL_QUENCH,
    QuenchSpec,
    ThermoLedger,
    _stack_ledgers,
    run_quench,
    run_sweep,
)
from .thermo import _check_beta, embed_reservoir, embed_system
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

FMT = "%.17g"

#: The H_B parameter a two_spin quench of each kind sets, and a sweep varies
_SWEPT = {SYSTEM_QUENCH: "epsilon_b", INTERACTION_QUENCH: "gamma_b"}

#: What each subcommand reads: by section, each config name with the default that also
#: fixes its type; under "tolerances" its tolerance names and defaults; and under
#: "inputs" the model inputs, all required, that each (model, quench kind) it takes adds
_READS = {
    "run": {"run": {"mode": "run", "model": "two_spin", "quench": SYSTEM_QUENCH, "beta": 1.0},
            "output": {"path": ""}, "inputs": {
        ("two_spin", SYSTEM_QUENCH): {"parameters": "epsilon_a alpha gamma chi epsilon_b"},
        ("two_spin", INTERACTION_QUENCH): {"parameters": "epsilon alpha chi_b gamma_b"},
        ("custom_matrix", SYSTEM_QUENCH): {"space": "d_s d_r", "matrices": "h_s_a h_s_b h_r v"},
        ("custom_matrix", INTERACTION_QUENCH): {"space": "d_s d_r", "matrices": "h_s h_r v"},
        ("custom_matrix", GENERAL_QUENCH): {"space": "d_s d_r",
                                            "matrices": "h_sur_a h_sur_b h_r"}}},
    "sweep": {"run": {"mode": "sweep", "model": "two_spin", "quench": SYSTEM_QUENCH, "beta": 1.0},
              "sweep": {"variable": "", "start": 0.0, "stop": 0.0, "count": 0},
              "output": {"path": ""}, "tolerances": DEFAULT_TOL, "inputs": {
                  ("two_spin", SYSTEM_QUENCH): {"parameters": "epsilon_a alpha gamma chi"},
                  ("two_spin", INTERACTION_QUENCH): {"parameters": "epsilon alpha chi_b"}}},
    "audit": {"run": {"mode": "audit", "seed": 1, "count": 100}, "output": {"path": ""},
              "tolerances": DEFAULT_TOLERANCES},
    "compare": {"run": {"mode": "compare", "seed": 1, "count": 100}, "output": {"path": ""},
                "tolerances": DEFAULT_TOL},
}

#: The error for a model input a config leaves out; [space]'s is configparser's own
_MISSING = {"parameters": "missing parameter {!r}",
            "matrices": "custom_matrix model needs matrix {!r}"}


class ConfigError(Exception):
    pass


def _parse_matrix(key: str, text: str, side: int) -> np.ndarray:
    entries = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    if len(entries) != side * side:
        raise ConfigError(
            f"matrix {key!r} needs {side * side} row-major entries, got {len(entries)}"
        )
    matrix = np.array(entries).reshape(side, side)
    if not np.isfinite(matrix).all():
        raise ConfigError(f"matrix {key!r} has a non-finite entry")
    return matrix


def load_config(path: str | None, command: str) -> SimpleNamespace:
    """The config at `path` (None: an empty one) as `command` reads it: one attribute per
    name `_READS` lists for it, at its default when left out, plus `tolerances` and, for
    the model inputs it reads, `parameters`, `space` and `matrices`.  A name it does not
    read, or a model input left out, is an error."""
    parser = configparser.ConfigParser(interpolation=None)  # a % in a value is literal
    try:
        if path is None:
            parser.read_dict({"run": {}})
        elif not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if not parser.has_section("run"):
            raise ConfigError(f"bad config {path}: no [run] section")
        reads = dict(_READS[command])
        inputs = reads.pop("inputs", {})
        cfg = SimpleNamespace(tolerances={}, **{
            name: type(default)(parser.get(section, name, fallback=default))
            for section, names in reads.items() if section != "tolerances"
            for name, default in names.items()})
        if inputs:  # the model and quench kind name the other inputs
            if cfg.model not in ("two_spin", "custom_matrix"):
                raise ConfigError(f"unknown model {cfg.model!r}")
            if cfg.quench not in (SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH):
                raise ConfigError(f"unknown quench kind {cfg.quench!r}")
            _check_beta(cfg.beta, ConfigError)
            if (cfg.model, cfg.quench) not in inputs:
                raise ConfigError("sweep mode requires the two_spin model"
                                  if cfg.model != "two_spin" else
                                  "two_spin quenches are system or interaction quenches")
            inputs = {section: names.split()
                      for section, names in inputs[cfg.model, cfg.quench].items()}
            reads.update(inputs)
        elif cfg.count < 1:
            raise ConfigError(f"count must be >= 1, got {cfg.count}")
        for section in parser.sections():
            if section not in reads:
                raise ConfigError(f"unknown config section [{section}]")
            # tolerance names are checked in main, with those from --tol
            for key in parser.options(section) if section != "tolerances" else ():
                if key not in reads[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        if cfg.mode != command:
            raise ConfigError(f"[run] mode = {cfg.mode}, but the subcommand is {command}")
        for section, names in inputs.items():
            for name in names:
                if not parser.has_option(section, name):
                    raise (ConfigError(_MISSING[section].format(name)) if section in _MISSING
                           else configparser.NoOptionError(name, section))

        if parser.has_section("tolerances"):
            cfg.tolerances = {k: float(v) for k, v in parser["tolerances"].items()}
        if "parameters" in reads:
            cfg.parameters = {k: float(v) for k, v in parser["parameters"].items()}
        if "space" in reads:  # then matrices too, whose sides it sets
            cfg.space = d_s, d_r = parser.getint("space", "d_s"), parser.getint("space", "d_r")
            sides = {"h_s_a": d_s, "h_s_b": d_s, "h_s": d_s, "h_r": d_r}  # the rest are D x D
            cfg.matrices = {key: _parse_matrix(key, text, sides.get(key, d_s * d_r))
                            for key, text in parser["matrices"].items()}
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return cfg


def _two_spin_sweep(kind: str, p: TwoSpinParams, values: np.ndarray):
    """(H_A, (N, 4, 4) H_B stack, H_R, oracle, scale) of two-spin quenches at (N,) `values`:
    a system quench sets p's epsilon to each value, an interaction quench switches gamma =
    value and p.chi on from zero.  `oracle()`, run when called, returns (N,) columns; the (N,)
    scale is max |E| over H_A and each H_B, |gamma| + hypot((|epsilon| + |alpha|)/2, chi)."""
    if kind == SYSTEM_QUENCH:
        p_a, params_b = p, (values, p.alpha, p.gamma, p.chi)
        oracle = functools.partial(system_quench_ledger, p, values)
    else:
        p_a, params_b = replace(p, gamma=0.0, chi=0.0), (p.epsilon, p.alpha, values, p.chi)
        oracle = functools.partial(interaction_quench_ledger, p.epsilon, p.alpha, values,
                                   p.chi, p.beta)
    level = lambda e, a, g, c: abs(g) + np.hypot((abs(e) + abs(a)) / 2, c)
    scale = np.maximum(level(p_a.epsilon, p_a.alpha, p_a.gamma, p_a.chi), level(*params_b))
    return (two_spin_hamiltonian(p_a), two_spin_matrices(*params_b), reservoir_hamiltonian(p_a),
            oracle, scale)


def _two_spin_config(cfg: SimpleNamespace, values: np.ndarray):
    """`_two_spin_sweep` with a two_spin config's parameters, at (N,) H_B `values`."""
    q = cfg.parameters
    if cfg.quench == SYSTEM_QUENCH:
        p = TwoSpinParams(q["epsilon_a"], q["alpha"], q["gamma"], q["chi"], cfg.beta)
    else:
        p = TwoSpinParams(q["epsilon"], q["alpha"], 0.0, q["chi_b"], cfg.beta)
    return _two_spin_sweep(cfg.quench, p, values)


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`; on failure print `write failure: ...` and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"write failure: {exc}", file=sys.stderr)
        return False
    return True


def _emit(text: str, path: str, code: int) -> int:
    """Print `text`, write it to `path` when one is set, and return `code`;
    a failed write returns EXIT_TOLERANCE."""
    print(text, end="")
    return EXIT_TOLERANCE if path and not _write(path, text) else code


def _table(ledger: ThermoLedger) -> np.ndarray:
    """The (N, F) numeric fields of a ledger of (N,) columns."""
    return np.array([getattr(ledger, name) for name in ThermoLedger.FIELDS]).T


def _oracle_fractions(eng: np.ndarray, ora: np.ndarray, scale: np.ndarray,
                      tol: dict[str, float]) -> np.ndarray:
    """|eng - ora| / (abs + rel * |ora|) per cell of (N, F) engine and oracle arrays, where
    an energy field's abs is oracle_match_abs times min(1, its row's energy scale).

    An exact match is 0; a cell that differs at a zero limit, or is not
    finite, is inf.
    """
    energy = [not name.startswith("delta_s_") for name in ThermoLedger.FIELDS]
    floor = tol["oracle_match_abs"] * np.where(energy, np.minimum(1.0, scale)[:, None], 1.0)
    with np.errstate(all="ignore"):
        diff = np.abs(eng - ora)
        frac = diff / (floor + tol["oracle_match_rel"] * np.abs(ora))
    frac[diff == 0] = 0.0
    frac[np.isnan(frac)] = np.inf
    return frac


def cmd_sweep(cfg: SimpleNamespace) -> int:
    if cfg.variable not in ("", _SWEPT[cfg.quench]):
        raise ConfigError(f"[sweep] variable = {cfg.variable}, but {cfg.quench} quenches "
                          f"sweep {_SWEPT[cfg.quench]}")
    if cfg.count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {cfg.count}")
    if not 0 < abs(cfg.stop - cfg.start) < np.inf:  # NaN fails too
        raise ConfigError("sweep start and stop must differ and span a finite range")
    if not cfg.path:
        raise ConfigError("sweep mode needs an output path")

    grid = np.linspace(cfg.start, cfg.stop, cfg.count)
    h_a, h_b, h_r, oracle, scale = _two_spin_config(cfg, grid)
    columns = run_sweep(h_a, h_b, h_r, cfg.beta, cfg.quench)
    fields, eng, ora = ThermoLedger.FIELDS, _table(columns), _table(oracle())
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
    worst = _oracle_fractions(eng, ora, scale, cfg.tolerances).max(axis=0)
    diss_cols = [fields.index(name) for name in ("diss_diff", "diss_hstar", "diss_estar")]
    min_diss = eng[:, diss_cols].min(axis=0)
    # runs of points whose E* work flag fails: a run starts and ends where
    # the mask, padded with False at both ends, changes value
    violating = ~columns.second_law_w[2]
    edges = np.flatnonzero(np.diff(np.concatenate(([False], violating, [False]))))

    if not _write(cfg.path, ",".join(header) + "\n" + rows):
        return EXIT_TOLERANCE

    summary = [f"sweep variable={_SWEPT[cfg.quench]} "
               f"points={cfg.count} range=[{FMT % cfg.start},{FMT % cfg.stop}]"]
    for name, v in zip(fields, max_diff.tolist()):
        summary.append(f"max_abs_diff {name} = {FMT % v}")
    for name, v in zip(("diss_diff", "diss_hstar", "diss_estar"), min_diss.tolist()):
        summary.append(f"min {name} = {FMT % v}")
    for start, end in edges.reshape(-1, 2).tolist():
        summary.append(f"diss_estar_violation [{FMT % grid[start]}, {FMT % grid[end - 1]}]")

    # oracle mismatch gate: every cell of each field must track the oracle;
    # a non-finite cell has fraction inf
    for name, diff, frac in zip(fields, max_diff.tolist(), worst.tolist()):
        if frac > 1.0:
            summary.append(f"ORACLE MISMATCH {name}: " + (
                f"worst tolerance fraction {frac:.3e}" if np.isfinite(diff)
                else "non-finite engine or oracle value"))
    code = EXIT_OK if (worst <= 1.0).all() else EXIT_TOLERANCE
    return _emit("\n".join(summary) + "\n", cfg.path + ".summary.txt", code)


def cmd_audit(cfg: SimpleNamespace) -> int:
    lines, passed = run_invariant_audit(cfg.seed, cfg.count, cfg.tolerances)
    return _emit("\n".join(lines) + "\n", cfg.path,
                 EXIT_OK if passed else EXIT_TOLERANCE)


def cmd_compare(cfg: SimpleNamespace) -> int:
    rng = np.random.default_rng(cfg.seed)
    kinds, fields, n = (SYSTEM_QUENCH, INTERACTION_QUENCH), ThermoLedger.FIELDS, cfg.count
    engine, oracle, scales = [], [], []  # (N, F) per kind; (1, F) and (1,) per draw
    for kind in kinds:
        draws = []  # H_A, H_B, beta and H_R's spectrum of each draw
        for _ in range(n):
            p = random_two_spin_params(rng)
            value = rng.uniform(-2, 2) if kind == SYSTEM_QUENCH else p.gamma
            h_a, h_b, h_r, closed_form, scale = _two_spin_sweep(kind, p, np.array([value]))
            draws.append((h_a.matrix, h_b[0], p.beta, h_r.eig.eigenvalues))
            oracle.append(_table(closed_form()))
            scales.append(scale)
        h_as, h_bs, betas, spectra = zip(*draws)  # draw k's H_A is quenched to its H_B
        engine.append(_table(_stack_ledgers(np.stack(h_as + h_bs), h_a.dims, np.tile(betas, 2),
                                            np.stack(spectra * 2), slice(n), slice(n, None))))
    frac = _oracle_fractions(*map(np.concatenate, (engine, oracle, scales)), cfg.tolerances)
    # the first maximum over (kind, draw, field), named only when it is not 0
    row, col = divmod(int(frac.argmax()), len(fields))
    worst = float(frac[row, col])
    where = f"{kinds[row // cfg.count]}:{fields[col]}" if worst else ""
    status = worst <= 1.0
    text = (f"compare seed={cfg.seed} points={cfg.count} per kind\n"
            f"worst tolerance fraction = {FMT % worst} at {where}\n"
            f"RESULT {'PASS' if status else 'FAIL'}\n")
    return _emit(text, cfg.path, EXIT_OK if status else EXIT_TOLERANCE)


def _custom_spec(cfg: SimpleNamespace) -> QuenchSpec:
    d_s, d_r = cfg.space

    def op(key, dims):
        return Operator(cfg.matrices[key], dims)

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


def cmd_run(cfg: SimpleNamespace) -> int:
    if cfg.model == "two_spin":  # the H_B value; a sweep's grid is checked by cmd_sweep
        value = np.array([cfg.parameters[_SWEPT[cfg.quench]]])
        if not np.isfinite(value[0]):
            raise ConfigError(f"{_SWEPT[cfg.quench]} must be finite")
        h_a, h_b, h_r, *_ = _two_spin_config(cfg, value)
        spec = QuenchSpec(h_a, Operator(h_b[0], h_a.dims), h_r, cfg.beta, kind=cfg.quench)
    else:
        spec = _custom_spec(cfg)
    ledger = run_quench(spec)
    lines = [f"{name} = {FMT % value}"
             for name, value in ledger.numeric_fields().items()]
    for name, flags in (("second_law_w", ledger.second_law_w),
                        ("second_law_q", ledger.second_law_q)):
        if flags is not None:
            lines.append(f"{name} = " + " ".join("1" if f else "0" for f in flags))
    return _emit("\n".join(lines) + "\n", cfg.path, EXIT_OK)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quenchtherm",
        description="strong-coupling quench thermodynamics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _READS:
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
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            if "seed" not in vars(cfg):
                raise ConfigError(f"{args.command} does not read --seed")
            cfg.seed = args.seed
        if vars(cfg).get("seed", 0) < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        if args.out is not None:
            cfg.path = args.out
        for item in args.tol:
            if "=" not in item:
                raise ConfigError(f"bad --tol override {item!r}")
            name, _, value = item.partition("=")
            cfg.tolerances[name] = float(value)
        known = _READS[args.command].get("tolerances", {})
        for name, value in cfg.tolerances.items():
            if name not in known:
                raise ConfigError(
                    f"unknown tolerance {name!r} for {args.command}; known: "
                    f"{', '.join(sorted(known)) or 'none'}"
                )
            if not 0 <= value < np.inf:  # NaN fails too; it would pass every gate
                raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {value}")
        cfg.tolerances = {**known, **cfg.tolerances}  # a new dict: the defaults stay as they are
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
