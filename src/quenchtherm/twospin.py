"""Closed-form ground truth for the two-spin benchmark model.

The model is H = (eps/2) sz_S + (alpha/2) sz_R + gamma sz_S sz_R
+ chi sx_S sx_R on two qubits.  This module evaluates the thermodynamics of
its sudden quenches as scalar expressions, a sweep per call, and shares with the
generic engine only the `ThermoLedger` record, so that the two can check each other.

H splits into the blocks {|++>, |-->} (g = +1) and {|+->, |-+>} (g = -1),
each g gamma + a sz + chi sx with a = (eps + g alpha)/2 and levels
g gamma -+ eta, eta = hypot(a, chi).  A level's weight on sz_S = +-1 is
(1 +- sz_S)/2, with sz_S = -+a/eta.  Boltzmann sums are kept as logs relative
to the ground energy, finite at any beta.  Pairs are in diag order (sz_S = +1, -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .operators import Operator
from .quench import ThermoLedger


@dataclass(frozen=True)
class TwoSpinParams:
    epsilon: float
    alpha: float
    gamma: float
    chi: float
    beta: float

    def __post_init__(self):
        for name in ("epsilon", "alpha", "gamma", "chi", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


class ClosedFormStatics(NamedTuple):
    """Statics of one Hamiltonian, finite at any beta: ln Z, ln X_s with
    X_s = <s| Tr_R e^{-beta H} |s>, the Gibbs means of (sz_S, sz_R, sz_S sz_R,
    sx_S sx_R) and the entropies beta (U - F_S) of the diff, H* and E* rows."""

    log_z: float
    log_x: tuple[float, float]
    populations: tuple[float, float]
    h_star_diag: tuple[float, float]
    e_star_diag: tuple[float, float]
    f_s: float
    means: tuple[float, float, float, float]
    entropies: tuple[float, float, float]


def _log_pair(x: float, y: float) -> tuple[float, float, float]:
    """ln(e^x + e^y) and the shares of e^x and e^y in that sum, without overflow."""
    if x >= y:
        u = math.exp(y - x)
        return x + math.log1p(u), 1 / (1 + u), u / (1 + u)
    u = math.exp(x - y)
    return y + math.log1p(u), u / (1 + u), 1 / (1 + u)


def _block(a: float, chi: float, b: float) -> tuple[float, ...]:
    """Block a sz + chi sx, levels -+eta: eta, tanh(b eta) / eta and the mean
    excess over the lower level, then per sz_S = +1, -1 the log-weight and
    mean excess of that spin's pair, with t = e^{-2 b eta}.  The smaller
    level weight chi^2 / (2 eta (eta + |a|)) does not cancel; a zero one is
    skipped, not logged."""
    eta = math.hypot(a, chi)
    if eta == 0:  # degenerate: each level weighs 1/2 on each spin
        return 0.0, b, 0.0, 0.0, 0.0, 0.0, 0.0
    gap = 2 * eta
    t_1 = math.expm1(-b * gap)  # t - 1, exact where b eta is small
    t = 1 + t_1
    small = chi * chi / (gap * (eta + abs(a)))
    big = 1 - small
    # the lower level weighs `big` on sz_S = -sign(a), `small` on the other spin
    pair = big + small * t
    low = math.log(pair), gap * small * t / pair
    if small > 0:
        pair = small + big * t
        high = math.log(pair), gap * big * t / pair
    else:  # that spin's pair is the upper level alone, with weight 1
        high = -b * gap, gap
    if a < 0:
        low, high = high, low
    return eta, -t_1 / ((1 + t) * eta), gap * t / (1 + t), *high, *low


def closed_form_statics(p: TwoSpinParams) -> ClosedFormStatics:
    """Evaluate ln Z, ln X_s, H*_S, E*_S, F_S, the means and entropies in log form."""
    b, g, chi = p.beta, p.gamma, p.chi
    a_p, a_m = (p.epsilon + p.alpha) / 2, (p.epsilon - p.alpha) / 2
    eta_p, r_p, ex_p, lx_pp, ex_pp, lx_pm, ex_pm = _block(a_p, chi, b)
    eta_m, r_m, ex_m, lx_mp, ex_mp, lx_mm, ex_mm = _block(a_m, chi, b)
    # lower levels g gamma - eta of the blocks, relative to the ground energy
    e_0 = min(g - eta_p, -g - eta_m)
    d_p, d_m = g - eta_p - e_0, -g - eta_m - e_0

    # ln x_s = ln X_s + beta E_0 and ln z = ln Z + beta E_0, with the shares
    # of the blocks in X_s and of the spins in Z
    log_xp, f_pp, f_mp = _log_pair(lx_pp - b * d_p, lx_mp - b * d_m)
    log_xm, f_pm, f_mm = _log_pair(lx_pm - b * d_p, lx_mm - b * d_m)
    log_z, pop_p, pop_m = _log_pair(log_xp, log_xm)
    z_p, z_m = pop_p * f_pp + pop_m * f_pm, pop_p * f_mp + pop_m * f_mm  # blocks in Z
    # mean excess of H over E_0, overall and given sz_S = +1, -1
    excess = z_p * (d_p + ex_p) + z_m * (d_m + ex_m)
    e_p = f_pp * (d_p + ex_pp) + f_mp * (d_m + ex_mp)
    e_m = f_pm * (d_p + ex_pm) + f_mm * (d_m + ex_mm)
    sz_p, sz_m = -a_p * r_p * z_p, -a_m * r_m * z_m  # block shares of <sz_S>
    means = (sz_p + sz_m, sz_p - sz_m, z_p - z_m, -chi * (z_p * r_p + z_m * r_m))

    # reservoir (alpha/2) sz_R: ln z_R = ln Z_R - beta |alpha|/2, u_r = <H_R> + |alpha|/2
    t_r = math.exp(-b * abs(p.alpha))
    log_zr, u_r = math.log1p(t_r), abs(p.alpha) * t_r / (1 + t_r)
    s_r, e_ref = b * u_r + log_zr, e_0 + abs(p.alpha) / 2
    return ClosedFormStatics(
        log_z - b * e_0, (log_xp - b * e_0, log_xm - b * e_0), (pop_p, pop_m),
        (e_ref - (log_xp - log_zr) / b, e_ref - (log_xm - log_zr) / b),
        (e_ref + e_p - u_r, e_ref + e_m - u_r), e_ref - (log_z - log_zr) / b, means,
        # -p ln p sums: S_SUR - S_R, S of the reduced state, and the E* row's
        (b * excess + log_z - s_r, -pop_p * (log_xp - log_z) - pop_m * (log_xm - log_z),
         b * (pop_p * e_p + pop_m * e_m) + log_z - s_r),
    )


def _quench_ledger(p_a: TwoSpinParams, values: float | np.ndarray, point) -> ThermoLedger:
    """Ledgers of the equilibrated quenches A -> B = point(v), sharing beta and alpha:
    at a float v a record of Python floats, at an (N,) array of them, N >= 1, a ledger
    of (N,) columns.  Each Hamiltonian's statics are evaluated once, in scalar `math`.

    With theta = (eps/2, alpha/2, gamma, chi) and O_k the matching operators,
    W_diff = sum dtheta_k <O_k>_A and Q_diff = sum theta_B,k d<O_k>; each
    H*/E* row is a two-term sum over sz_S.
    """
    if np.ndim(values) > 1:
        raise ValueError(f"swept values need at most one axis, got shape {np.shape(values)}")
    points = [point(v) for v in np.ravel(values).tolist()]
    if not points:
        raise ValueError("the oracle needs at least one swept value")
    sa = closed_form_statics(p_a)
    # a sequence over the points as the one point's entry, or with the points on a last axis
    column = (lambda seq: seq[0]) if np.ndim(values) == 0 else (lambda seq: np.array(seq).T)
    sb = ClosedFormStatics(*map(column, zip(*map(closed_form_statics, points))))
    eps, alpha, gamma, chi = column([(p.epsilon, p.alpha, p.gamma, p.chi) for p in points])
    ma, mb = sa.means, sb.means
    w_diff = ((eps - p_a.epsilon) / 2 * ma[0] + (alpha - p_a.alpha) / 2 * ma[1]
              + (gamma - p_a.gamma) * ma[2] + (chi - p_a.chi) * ma[3])
    q_diff = (eps / 2 * (mb[0] - ma[0]) + alpha / 2 * (mb[1] - ma[1])
              + gamma * (mb[2] - ma[2]) + chi * (mb[3] - ma[3]))
    pa_p, pa_m = sa.populations
    dp = sb.populations[0] - pa_p  # the sz_S = -1 population moves by -dp
    (ha_p, ha_m), (hb_p, hb_m) = sa.h_star_diag, sb.h_star_diag
    (ea_p, ea_m), (eb_p, eb_m) = sa.e_star_diag, sb.e_star_diag
    (sa_d, sa_h, sa_e), (sb_d, sb_h, sb_e) = sa.entropies, sb.entropies
    return ThermoLedger(
        w_diff, pa_p * (hb_p - ha_p) + pa_m * (hb_m - ha_m),
        pa_p * (eb_p - ea_p) + pa_m * (eb_m - ea_m),
        q_diff, dp * (hb_p - hb_m), dp * (eb_p - eb_m),
        sb.f_s - sa.f_s, sb_d - sa_d, sb_h - sa_h, sb_e - sa_e, p_a.beta,
        equilibrated=True,
    )


def system_quench_ledger(p_a: TwoSpinParams, epsilon_b: float | np.ndarray) -> ThermoLedger:
    """Closed-form ledger for an abrupt change of the system field epsilon to
    epsilon_b, a float (a record) or an (N,) array (a ledger of (N,) columns)."""
    return _quench_ledger(p_a, epsilon_b, lambda v: replace(p_a, epsilon=v))


def interaction_quench_ledger(
    epsilon: float, alpha: float, gamma_b: float | np.ndarray, chi_b: float, beta: float
) -> ThermoLedger:
    """Closed-form ledger for abruptly switching the couplings on from zero to
    gamma_b, a float (a record) or an (N,) array (a ledger of (N,) columns), and chi_b."""
    return _quench_ledger(TwoSpinParams(epsilon, alpha, 0.0, 0.0, beta), gamma_b,
                          lambda v: TwoSpinParams(epsilon, alpha, v, chi_b, beta))


def _kron_terms() -> tuple[np.ndarray, ...]:
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return np.kron(sz, eye), np.kron(eye, sz), np.kron(sz, sz), np.kron(sx, sx)


#: sz_S, sz_R, sz_S sz_R and sx_S sx_R, S qubit leading
_SZ_S, _SZ_R, _ZZ, _XX = _kron_terms()


def two_spin_matrices(epsilon, alpha, gamma, chi) -> np.ndarray:
    """Model matrices for scalar or array parameters, shape (..., 4, 4)."""
    eps, a, g, c = (np.asarray(v, dtype=float)[..., None, None]
                    for v in (epsilon, alpha, gamma, chi))
    return (eps / 2) * _SZ_S + (a / 2) * _SZ_R + g * _ZZ + c * _XX


def two_spin_hamiltonian(p: TwoSpinParams) -> Operator:
    """The 4x4 benchmark Hamiltonian, S qubit leading."""
    return Operator(two_spin_matrices(p.epsilon, p.alpha, p.gamma, p.chi), (2, 2))


def reservoir_hamiltonian(p: TwoSpinParams) -> Operator:
    """Bare reservoir term (alpha/2) sz_R."""
    return Operator((p.alpha / 2) * np.diag([1.0, -1.0]).astype(complex), (2,))

