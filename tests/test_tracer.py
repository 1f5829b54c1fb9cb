"""The benchmark's span tracer still finds every name it patches.

`perfbench/tracer.py` rebinds package functions and methods by name; a
renamed or deleted name would only show when the benchmark runs.  This test
installs the tracer around one quench and its audit, checks that spans were
recorded, and that uninstalling restores every original.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import quenchtherm as qt
from quenchtherm import operators, quench
from quenchtherm.audits import random_bipartite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name the tracer may rebind, mapped to the object it holds now."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "quenchtherm" or key.startswith("quenchtherm."):
            out.update({(key, name): value for name, value in vars(mod).items()})
    for cls in (operators.Operator, operators.DensityMatrix, quench.QuenchSpec):
        out.update({(cls.__qualname__, name): value for name, value in vars(cls).items()})
    out.update({("numpy.linalg", name): getattr(np.linalg, name)
                for name in ("eigh", "eigvalsh")})
    return out


def test_tracer_records_spans_and_restores_originals():
    tr = load_tracer()
    rng = np.random.default_rng(41)
    h_a, _, h_r, _ = random_bipartite(rng, 2, 4)
    h_b, _, _, _ = random_bipartite(rng, 2, 4)
    before = bindings()
    tracer = tr.Tracer(d_global=8)
    with tracer:
        assert [key for key, value in bindings().items() if before.get(key) is not value]
        tracer.op = 0
        spec = qt.QuenchSpec(h_a, h_b, h_r, 0.7)
        qt.second_law_audit(spec, qt.run_quench(spec))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    counts = tracer.per_op()[0]
    assert counts["calls:quench.QuenchSpec.check"] == 1
    assert counts["calls:quench.run_quench"] == 1
    assert counts["calls:quench.second_law_audit"] == 1
    assert counts["calls:" + tr.EIGH_GLOBAL] == 2
