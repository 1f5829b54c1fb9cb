"""The two-spin oracle across the target domain, against an mpmath reference.

The reference shares nothing with the oracle but the model: H is built as a
4x4 mpmath matrix and diagonalized at 60 digits, e^{-beta H} = V e^{-beta E}
V^T, the reduced state comes from an explicit Tr_R, H* from its logarithm and
E* = d(beta H*)/d beta from `mp.diff`.  Every Boltzmann sum is a sum of
positive terms, so 60 digits hold at any beta * spread.
"""

import math
from functools import lru_cache

import mpmath as mp
import pytest

from quenchtherm import TwoSpinParams, interaction_quench_ledger, system_quench_ledger
from quenchtherm.quench import ThermoLedger

DIGITS = 60
BETA_SPREADS = (1e-2, 1e-1, 1.0, 10.0, 30.0, 100.0, 300.0, 1e3)
# (epsilon, alpha, gamma, chi) of H_A and of H_B; an interaction quench
# starts from gamma = chi = 0
POINTS = {
    "system": (((0.3, 0.8, 1.2, 1.8), (-1.1, 0.8, 1.2, 1.8)),
               ((-1.7, 0.4, -0.6, 0.35), (0.9, 0.4, -0.6, 0.35))),
    "interaction": (((1.0, 5.0, 0.0, 0.0), (1.0, 5.0, 0.7, 1.2)),
                    ((-0.45, 1.3, 0.0, 0.0), (-0.45, 1.3, -1.6, -0.8))),
}
FIELD_TOL = 1e-12


def _hamiltonian(epsilon, alpha, gamma, chi):
    """H on |s r>, index 2 s + r, with s, r = 0 for sz = +1."""
    sz = (1, -1)
    h = mp.zeros(4, 4)
    for s in range(2):
        for r in range(2):
            h[2 * s + r, 2 * s + r] = (mp.mpf(epsilon) / 2 * sz[s] + mp.mpf(alpha) / 2 * sz[r]
                                       + mp.mpf(gamma) * sz[s] * sz[r])
            h[2 * s + r, 2 * (1 - s) + (1 - r)] = mp.mpf(chi)
    return h


@lru_cache(maxsize=None)
def _eigen(params):
    """(E, V, weight of level l on sz_S = +1 and -1) of H, at 60 digits."""
    with mp.workdps(DIGITS):
        e, v = mp.eigsy(_hamiltonian(*params))
        w = [[v[2 * s, l] ** 2 + v[2 * s + 1, l] ** 2 for l in range(4)] for s in range(2)]
    return e, v, w


def _log_x(params, beta, s):
    """ln X_s = ln <s| Tr_R e^{-beta H} |s>."""
    e, _, w = _eigen(params)
    return mp.log(mp.fsum(w[s][l] * mp.exp(-beta * e[l]) for l in range(4)))


def _statics(params, beta):
    """(level populations, p_s, H*_s, E*_s, F_S, <H_R>) of the Gibbs state."""
    e, _, _ = _eigen(params)
    alpha = mp.mpf(params[1])

    def log_z_r(b):
        return mp.log(2 * mp.cosh(b * alpha / 2))

    boltz = [mp.exp(-beta * e[l]) for l in range(4)]
    z = mp.fsum(boltz)
    log_x = [_log_x(params, beta, s) for s in range(2)]
    h_star = [-(v - log_z_r(beta)) / beta for v in log_x]
    e_star = [mp.diff(lambda b, s=s: log_z_r(b) - _log_x(params, b, s), beta)
              for s in range(2)]
    return ([b / z for b in boltz], [mp.exp(v) / z for v in log_x], h_star, e_star,
            -(mp.log(z) - log_z_r(beta)) / beta, -alpha / 2 * mp.tanh(beta * alpha / 2))


def reference_ledger(params_a, params_b, beta):
    """Every numeric field of the equilibrated quench A -> B, as mpmath numbers."""
    levels_a, pa, hs_a, es_a, f_a, u_r = _statics(params_a, beta)
    levels_b, pb, hs_b, es_b, f_b, _ = _statics(params_b, beta)
    e_a, v_a, _ = _eigen(params_a)
    e_b, _, _ = _eigen(params_b)
    h_b = _hamiltonian(*params_b)
    # <H_B> in pi_A from the diagonal of V_A^T H_B V_A
    h_b_in_a = mp.fsum(levels_a[l] * (v_a[:, l].T * h_b * v_a[:, l])[0] for l in range(4))

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    u = {"diff": (mp.fsum(p * e for p, e in zip(levels_a, e_a)) - u_r,
                  mp.fsum(p * e for p, e in zip(levels_b, e_b)) - u_r),
         "hstar": (dot(pa, hs_a), dot(pb, hs_b)),
         "estar": (dot(pa, es_a), dot(pb, es_b))}
    at_b = {"diff": h_b_in_a - u_r, "hstar": dot(pa, hs_b), "estar": dot(pa, es_b)}
    out = {"delta_f_s": f_b - f_a}
    for k in ("diff", "hstar", "estar"):
        out[f"w_{k}"] = at_b[k] - u[k][0]
        out[f"q_{k}"] = u[k][1] - at_b[k]
        out[f"delta_s_{k}"] = beta * (u[k][1] - u[k][0] - out["delta_f_s"])
        out[f"diss_{k}"] = out[f"w_{k}"] - out["delta_f_s"]
    return out


def spread(epsilon, alpha, gamma, chi):
    """Spectral spread of H, from its 2x2 blocks."""
    eta = [math.hypot((epsilon + g * alpha) / 2, chi) for g in (1, -1)]
    levels = [g * gamma + s * e for g, e in zip((1, -1), eta) for s in (1, -1)]
    return max(levels) - min(levels)


def oracle_ledger(kind, params_a, params_b, beta):
    if kind == "system":
        return system_quench_ledger(TwoSpinParams(*params_a, beta), params_b[0])
    return interaction_quench_ledger(*params_b, beta)


@pytest.mark.parametrize("beta_spread", BETA_SPREADS)
@pytest.mark.parametrize("kind,params_a,params_b", [
    pytest.param(kind, a, b, id=f"{kind}-{k}")
    for kind, points in POINTS.items() for k, (a, b) in enumerate(points)])
def test_oracle_matches_reference(kind, params_a, params_b, beta_spread):
    """Every field is finite and within 1e-12 max(1, |ref|) of the reference."""
    beta = beta_spread / spread(*params_a)
    oracle = oracle_ledger(kind, params_a, params_b, beta)
    with mp.workdps(DIGITS):
        ref = reference_ledger(params_a, params_b, mp.mpf(beta))
        for name in ThermoLedger.FIELDS:
            value = getattr(oracle, name)
            assert math.isfinite(value), name
            assert abs(value - ref[name]) <= FIELD_TOL * max(1, abs(ref[name])), (
                f"{name}: oracle {value!r} vs reference {mp.nstr(ref[name], 20)}")
