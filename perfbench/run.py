"""quenchtherm benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload sweep_d4 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's own ``src/``; without it the benchmark exits with code 2 and
prints no result.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs every op twice, untraced and under the span tracer, for
the per-layer metrics; ``trace.overhead_frac`` compares the two.  The last
stdout line is the JSON result; the line before it is a report with the
environment and every failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSED = 100  # ten samples beyond p90
SETUP_PROBES = 8  # fresh processes timed for setup_s, besides this one
REPLAY_OPS = 6  # ops replayed under the tracer to check counts repeat
EXIT_NO_PACKAGE = 2
# Global eigh per quench_d128 op (quench plus audit) found by a probe before
# the benchmark existed, by final mode.
BASELINE_GLOBAL_EIGH = {"equilibrated": 16, "unitary": 17}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_package():
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    try:
        import quenchtherm
    except ImportError as exc:
        raise BenchmarkError(f"cannot import quenchtherm from {SRC}: {exc}") from exc
    origin = os.path.dirname(os.path.abspath(quenchtherm.__file__))
    if os.path.dirname(origin) != SRC:
        raise BenchmarkError(f"quenchtherm imported from {origin}, not from {SRC}")


def setup(workload_name: str, seed: int, workdir: str):
    """Import the package, build the workload and run one warm-up op."""
    t0 = perf_counter()
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    workloads.execute(workload, workload.warmup())
    return workload, perf_counter() - t0


def probe_setup_seconds(args) -> float:
    """Setup time of a fresh process, which pays the real import cost."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _record(op, seconds: float, outcome) -> dict:
    # keeps no input matrices: they would dominate the process's memory
    return {"index": op.index, "kind": op.kind, "beta_spread": op.beta_spread,
            "repeat_of": op.repeat_of, "ms": 1e3 * seconds, "outcome": outcome}


def run_ops(workload, seconds: float, min_passed: int, hard_stop: float,
            interludes: int = 0, interlude=None):
    """Closed loop: each op starts when the previous one has been checked.

    Runs for `seconds`, and on until `min_passed` ops have passed or
    `hard_stop` seconds have gone by.  Returns the latencies of passed ops,
    the records of failed ops, the ms spent inside all ops and the results
    of `interlude`.  That is called `interludes` times between ops, spread
    evenly over the run, so what it times sees the same machine states as
    the ops; its time does not count against the run.  A passed op keeps
    only its latency, so memory does not grow with throughput.
    """
    import workloads

    passed_ms = array("d")
    failed = []
    busy_ms = 0.0
    side = []
    paused = 0.0
    t_start = perf_counter()
    while True:
        elapsed = perf_counter() - t_start - paused
        if len(side) < interludes and elapsed >= seconds * (len(side) + 0.5) / interludes:
            t0 = perf_counter()
            side.append(interlude())
            paused += perf_counter() - t0
            continue
        if elapsed >= seconds and (len(passed_ms) >= min_passed or elapsed >= hard_stop):
            return passed_ms, failed, busy_ms, side
        op = workload.op(len(passed_ms) + len(failed))
        rec = _record(op, *workloads.execute(workload, op))
        busy_ms += rec["ms"]
        if rec["outcome"].passed:
            passed_ms.append(rec["ms"])
        else:
            failed.append(rec)


def _passed(records):
    return [r for r in records if r["outcome"].passed]


def latency_metrics(passed_ms, failed, busy_ms) -> tuple[dict, dict]:
    """(gated metrics, ungated figures) over passed ops; failed ops if none passed.

    Only the tail latency is gated.  Machine speed in the sandbox the bounds
    were set on drifts between a fast and a slow state over tens of seconds,
    and the median and the throughput move with the share of fast time in a
    run by more than any allowed bound; the 90th percentile mostly sits in
    the slow state.  Throughput divides by the time spent inside ops, so the
    benchmark's own input generation and checks do not count.
    """
    lat = list(passed_ms) or [r["ms"] for r in failed]
    gated = {
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "pass_rate": len(passed_ms) / (len(passed_ms) + len(failed)),
    }
    ungated = {
        "ops_per_s": len(passed_ms) / (busy_ms / 1e3),
        "op_p50_ms": statistics.median(lat),
        "latency_samples": len(lat),
    }
    return gated, ungated


def failure_list(records) -> list[dict]:
    return [
        {"op": r["index"], "kind": r["kind"], "beta_spread": r["beta_spread"],
         "error": r["outcome"].error, "known": r["outcome"].known}
        for r in records if not r["outcome"].passed
    ]


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(per_op, traced, untraced) -> dict:
    """Per-op means over the passed traced ops."""
    import tracer as tr

    ok = [k for k, r in enumerate(traced) if r["outcome"].passed]

    def mean(*keys):
        return _mean(sum(per_op.get(k, {}).get(key, 0.0) for key in keys) for k in ok)

    untraced_ok = _passed(untraced)
    floor_ms = _mean(r["floor_ms"] for r in untraced_ok)
    p50_traced = statistics.median(r["ms"] for r in _passed(traced) or traced)
    p50_untraced = statistics.median(r["ms"] for r in untraced_ok or untraced)
    metrics = {
        "operators.eigh_global_calls": mean("calls:" + tr.EIGH_GLOBAL),
        "operators.eigh_small_calls": mean("calls:" + tr.EIGH_SMALL),
        "operators.eigvalsh_calls": mean("calls:" + tr.EIGVALSH),
        "operators.eigh_ms": mean("self_ms:" + tr.EIGH_GLOBAL, "self_ms:" + tr.EIGH_SMALL),
        "operators.validate_ms": mean("incl_ms:operators.require_hermitian",
                                      "incl_ms:operators.DensityMatrix.check"),
        "operators.partial_trace_ms": mean("incl_ms:operators.partial_trace"),
        "operators.operator_new": mean("calls:" + tr.OPERATOR_NEW),
        "operators.floor_ms": floor_ms,
        "operators.floor_ratio": (_mean(r["ms"] for r in untraced_ok) / floor_ms
                                  if floor_ms else 0.0),
        "thermo.gibbs_calls": mean("calls:thermo.gibbs"),
        "thermo.gibbs_ms": mean("incl_ms:thermo.gibbs"),
        "thermo.mean_force_calls": mean("calls:thermo.mean_force_hamiltonian"),
        "thermo.mean_force_ms": mean("incl_ms:thermo.mean_force_hamiltonian"),
        "thermo.estar_ms": mean("incl_ms:thermo.effective_energy_operator"),
        "thermo.log_partition_calls": mean("calls:thermo.log_partition"),
        "quench.spec_check_ms": mean("incl_ms:quench.QuenchSpec.check"),
        "quench.ledger_self_ms": mean("self_ms:quench.run_quench"),
        "quench.audit_ms": mean("incl_ms:quench.second_law_audit"),
        "quench.relent_ms": mean("incl_ms:quench.relative_entropy"),
        "quench.evolve_ms": mean("incl_ms:quench.evolve_unitary"),
        "twospin.oracle_ms": mean("incl_ms:twospin.system_quench_ledger",
                                  "incl_ms:twospin.interaction_quench_ledger"),
        "twospin.build_ms": mean("incl_ms:twospin.two_spin_hamiltonian",
                                 "incl_ms:twospin.reservoir_hamiltonian"),
        "twospin.oracle_err_frac": max(
            (traced[k]["outcome"].oracle_err_frac for k in ok), default=0.0),
        "cli.self_ms": mean("self_ms:cli.main"),
        "cli.bytes_out": _mean(traced[k]["outcome"].bytes_out for k in ok),
        "trace.overhead_frac": p50_traced / p50_untraced - 1.0,
    }
    return metrics


def _counts(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k.startswith("calls:")}


def repeat_mismatches(per_op, traced) -> list[str]:
    """Counts are a pure function of the op's input; list where they are not."""
    problems = []
    first: dict[int, int] = {}
    for k, r in enumerate(traced):
        for other in (first.get(r["index"]), first.get(r["repeat_of"])):
            if other is not None and _counts(per_op.get(other, {})) != _counts(per_op.get(k, {})):
                problems.append(f"op {r['index']}: counts differ from an earlier run of its input")
        first.setdefault(r["index"], k)
    return problems


def baseline_eigh_check(per_op, traced) -> str | list[str]:
    """Compare global eigh per passed quench op with the pre-benchmark probe.

    A match shows the tracer sees every call.  A program that needs fewer
    eigendecompositions is listed here, not failed.
    """
    import tracer as tr

    diffs, checked = [], 0
    for k, r in enumerate(traced):
        mode = r["kind"].partition("/")[2]
        if mode not in BASELINE_GLOBAL_EIGH or not r["outcome"].passed:
            continue
        checked += 1
        got = per_op.get(k, {}).get("calls:" + tr.EIGH_GLOBAL, 0)
        if got != BASELINE_GLOBAL_EIGH[mode]:
            diffs.append(f"op {r['index']} ({r['kind']}): {got} global eigh, "
                         f"probe {BASELINE_GLOBAL_EIGH[mode]}")
    if not checked:
        return "n/a"
    return diffs or f"match on {checked} ops"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _blas_threads(np) -> int | str:
    """Thread count OpenBLAS reports, else the pinned environment value."""
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"env {os.environ['OPENBLAS_NUM_THREADS']}"


def _metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_d4", "quench_d128", "statics_d16"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time set-up in this fresh process, print it, exit")
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload, own_setup = setup(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(repr(own_setup))
            return 0
        if args.trace:
            result, report = traced_run(workload, args)
        else:
            result, report = untraced_run(workload, args, own_setup)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_DIR)  # only when nothing was written there

    units = _metric_units()
    report["environment"] = environment(args.seed)
    print(json.dumps({"report": report}))
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def untraced_run(workload, args, own_setup):
    seconds = args.seconds
    passed_ms, failed, busy_ms, probes = run_ops(
        workload, seconds, MIN_PASSED, hard_stop=1.25 * seconds,
        interludes=SETUP_PROBES, interlude=lambda: probe_setup_seconds(args))
    setups = [own_setup] + probes
    metrics, ungated = latency_metrics(passed_ms, failed, busy_ms)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = failure_list(failed)
    report = {
        "workload": args.workload, "trace": 0, **ungated,
        "setup_samples_s": setups, "failures": failures,
    }
    result = {
        "correct": all(f["known"] for f in failures),
        "attempted": len(passed_ms) + len(failed), "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def _traced(workload, tracer, op, key: int) -> dict:
    import workloads

    tracer.op = key
    with tracer:
        rec = _record(op, *workloads.execute(workload, op))
    tracer.op = -1
    return rec


def traced_run(workload, args):
    """Each op runs once untraced and once traced, in alternating order.

    Pairing the two runs of an op in time keeps machine-load drift out of
    `trace.overhead_frac`; alternating the order keeps warm caches from
    favouring either side.  The untraced run also times the op's eigh floor.
    Last, the domain probe runs untimed and untraced; its failures are
    reported, and do not count among the run's attempted and failed ops.
    """
    import tracer as tr
    import workloads

    tracer = tr.Tracer(workload.d_global)
    untraced, traced = [], []
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds:
        i = len(untraced)
        op = workload.op(i)
        for run_traced in ((True, False) if i % 2 == 0 else (False, True)):
            if run_traced:
                traced.append(_traced(workload, tracer, op, len(traced)))
            else:
                rec = _record(op, *workloads.execute(workload, op))
                rec["floor_ms"] = 1e3 * workloads.floor_seconds(op)
                untraced.append(rec)
    replays = [_traced(workload, tracer, workload.op(k), len(traced) + k)
               for k in range(min(REPLAY_OPS, len(traced)))]
    probe = [_record(op, *workloads.execute(workload, op)) for op in workload.probe_ops()]
    probe_failures = failure_list(probe)
    per_op = tracer.per_op()
    metrics = layer_metrics(per_op, traced, untraced)
    metrics["domain.fail_frac"] = len(probe_failures) / len(probe)
    problems = repeat_mismatches(per_op, traced + replays)
    tracer.write_csv(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
    failures = failure_list(traced)
    report = {
        "workload": args.workload, "trace": 1, "spans": len(tracer.start),
        "count_repeat": problems or "ok",
        "baseline_eigh": baseline_eigh_check(per_op, traced), "failures": failures,
        "domain_probe": {"ops": len(probe), "failures": probe_failures},
    }
    result = {
        "correct": not problems and all(f["known"] for f in failures + probe_failures),
        "attempted": len(traced), "failed": len(failures), "metrics": metrics,
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
