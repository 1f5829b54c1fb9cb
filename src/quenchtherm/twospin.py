"""Closed-form ground truth for the two-spin benchmark model.

The model is H = (eps/2) sz_S + (alpha/2) sz_R + gamma sz_S sz_R
+ chi sx_S sx_R on two qubits.  Every thermodynamic quantity of its sudden
quenches has an explicit scalar expression; this module evaluates those
expressions directly, sharing no linear-algebra code with the generic
engine so the two can check each other.  The two share only the
`ThermoLedger` record, which derives the dissipated works and the
second-law flags from the scalar works, heats and entropy changes.

Conventions: eta_pm = sqrt((eps/2 +- alpha/2)^2 + chi^2) and
a_pm = (eps +- alpha)/2.  X_pm are the (unnormalized) populations of the
reduced thermal state in the sz_S eigenbasis, with Z_SUR = X_- + X_+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def statics(self) -> ClosedFormStatics:
        """`closed_form_statics(self)`, evaluated on first access only."""
        return closed_form_statics(self)


@dataclass(frozen=True)
class ClosedFormStatics:
    """Partition function, reduced-state populations, and effective operators."""

    z_sur: float
    x_minus: float
    x_plus: float
    d_beta_x_minus: float
    d_beta_x_plus: float
    h_star_diag: tuple[float, float]
    e_star_diag: tuple[float, float]


def _ratio(a: float, eta: float) -> float:
    # a/eta is bounded by 1 since eta^2 = a^2 + chi^2; at eta = 0 both vanish
    return a / eta if eta > 0 else 0.0


def closed_form_statics(p: TwoSpinParams) -> ClosedFormStatics:
    """Evaluate Z_SUR, X_pm, their beta-derivatives, H*_S and E*_S."""
    b = p.beta
    eta_p = math.sqrt((p.epsilon / 2 + p.alpha / 2) ** 2 + p.chi**2)
    eta_m = math.sqrt((p.epsilon / 2 - p.alpha / 2) ** 2 + p.chi**2)
    a_p = (p.epsilon + p.alpha) / 2
    a_m = (p.epsilon - p.alpha) / 2
    em = math.exp(-b * p.gamma)
    ep = math.exp(b * p.gamma)
    ch_p, sh_p = math.cosh(b * eta_p), math.sinh(b * eta_p)
    ch_m, sh_m = math.cosh(b * eta_m), math.sinh(b * eta_m)
    r_p, r_m = _ratio(a_p, eta_p), _ratio(a_m, eta_m)

    z_sur = 2 * em * ch_p + 2 * ep * ch_m

    def x_dx(sign: float) -> tuple[float, float]:
        # x(sign) and its term-wise beta-derivative; d/dbeta of e^{-+ b gamma}
        # brings down -+ gamma, cosh/sinh differentiate to eta sinh / eta
        # cosh, and the (a/eta) sinh term differentiates to a cosh
        in_p = ch_p + sign * r_p * sh_p
        in_m = ch_m + sign * r_m * sh_m
        term_p = em * (-p.gamma * in_p + eta_p * sh_p + sign * a_p * ch_p)
        term_m = ep * (p.gamma * in_m + eta_m * sh_m + sign * a_m * ch_m)
        return em * in_p + ep * in_m, term_p + term_m

    (x_minus, dx_minus), (x_plus, dx_plus) = x_dx(-1.0), x_dx(+1.0)

    denom = 2 * math.cosh(b * p.alpha / 2)
    h_star = (-math.log(x_minus / denom) / b, -math.log(x_plus / denom) / b)
    tanh_term = (p.alpha / 2) * math.tanh(b * p.alpha / 2)
    e_star = (-dx_minus / x_minus + tanh_term, -dx_plus / x_plus + tanh_term)

    return ClosedFormStatics(z_sur, x_minus, x_plus, dx_minus, dx_plus, h_star, e_star)


def system_quench_ledger(p_a: TwoSpinParams, epsilon_b: float) -> ThermoLedger:
    """Closed-form ledger for an abrupt change of the system field epsilon."""
    b = p_a.beta
    p_b = TwoSpinParams(epsilon_b, p_a.alpha, p_a.gamma, p_a.chi, b)
    sa = p_a.statics
    sb = closed_form_statics(p_b)

    em = math.exp(-b * p_a.gamma)
    ep = math.exp(b * p_a.gamma)
    eta_p_a = math.sqrt((p_a.epsilon / 2 + p_a.alpha / 2) ** 2 + p_a.chi**2)
    eta_m_a = math.sqrt((p_a.epsilon / 2 - p_a.alpha / 2) ** 2 + p_a.chi**2)
    eta_p_b = math.sqrt((epsilon_b / 2 + p_a.alpha / 2) ** 2 + p_a.chi**2)
    eta_m_b = math.sqrt((epsilon_b / 2 - p_a.alpha / 2) ** 2 + p_a.chi**2)
    a_p_a, a_m_a = (p_a.epsilon + p_a.alpha) / 2, (p_a.epsilon - p_a.alpha) / 2
    a_p_b, a_m_b = (epsilon_b + p_a.alpha) / 2, (epsilon_b - p_a.alpha) / 2

    ch_p_a, sh_p_a = math.cosh(b * eta_p_a), math.sinh(b * eta_p_a)
    ch_m_a, sh_m_a = math.cosh(b * eta_m_a), math.sinh(b * eta_m_a)
    ch_p_b, sh_p_b = math.cosh(b * eta_p_b), math.sinh(b * eta_p_b)
    ch_m_b, sh_m_b = math.cosh(b * eta_m_b), math.sinh(b * eta_m_b)

    w_diff = (p_a.epsilon - epsilon_b) / sa.z_sur * (
        _ratio(a_p_a, eta_p_a) * em * sh_p_a
        + _ratio(a_m_a, eta_m_a) * ep * sh_m_a
    )
    w_hstar = -1.0 / (b * sa.z_sur) * (
        sa.x_minus * math.log(sb.x_minus / sa.x_minus)
        + sa.x_plus * math.log(sb.x_plus / sa.x_plus)
    )
    w_estar = (
        sa.d_beta_x_minus
        - sa.x_minus / sb.x_minus * sb.d_beta_x_minus
        + sa.d_beta_x_plus
        - sa.x_plus / sb.x_plus * sb.d_beta_x_plus
    ) / sa.z_sur

    g = p_a.gamma
    q_diff = (
        2 * g * (em * ch_p_b - ep * ch_m_b)
        - 2 * eta_p_b * em * sh_p_b
        - 2 * eta_m_b * ep * sh_m_b
    ) / sb.z_sur + (
        2 * g * (-em * ch_p_a + ep * ch_m_a)
        + 2 * em * sh_p_a * (a_p_b * a_p_a + p_a.chi**2) / eta_p_a
        + 2 * ep * sh_m_a * (a_m_b * a_m_a + p_a.chi**2) / eta_m_a
    ) / sa.z_sur
    q_hstar = (
        (sa.x_minus / sa.z_sur - sb.x_minus / sb.z_sur) * math.log(sb.x_minus)
        + (sa.x_plus / sa.z_sur - sb.x_plus / sb.z_sur) * math.log(sb.x_plus)
    ) / b
    q_estar = (
        (sa.x_minus / sa.z_sur - sb.x_minus / sb.z_sur)
        * sb.d_beta_x_minus / sb.x_minus
        + (sa.x_plus / sa.z_sur - sb.x_plus / sb.z_sur)
        * sb.d_beta_x_plus / sb.x_plus
    )

    delta_f_s = -math.log(
        (em * ch_p_b + ep * ch_m_b) / (em * ch_p_a + ep * ch_m_a)
    ) / b

    ds_diff = -b * (
        (sb.d_beta_x_minus + sb.d_beta_x_plus) / sb.z_sur
        - (sa.d_beta_x_minus + sa.d_beta_x_plus) / sa.z_sur
    ) + math.log(sb.z_sur / sa.z_sur)
    ds_hstar = (
        sb.x_minus / sb.z_sur * math.log(sb.z_sur / sb.x_minus)
        - sa.x_minus / sa.z_sur * math.log(sa.z_sur / sa.x_minus)
        + sb.x_plus / sb.z_sur * math.log(sb.z_sur / sb.x_plus)
        - sa.x_plus / sa.z_sur * math.log(sa.z_sur / sa.x_plus)
    )

    return ThermoLedger.assemble(
        (w_diff, w_hstar, w_estar),
        (q_diff, q_hstar, q_estar),
        delta_f_s,
        (ds_diff, ds_hstar, ds_diff),
        b,
        equilibrated=True,
    )


def interaction_quench_ledger(
    epsilon: float, alpha: float, gamma_b: float, chi_b: float, beta: float
) -> ThermoLedger:
    """Closed-form ledger for abruptly switching the couplings on from zero."""
    b = beta
    p_b = TwoSpinParams(epsilon, alpha, gamma_b, chi_b, beta)
    sb = closed_form_statics(p_b)

    eta_p = math.sqrt((epsilon / 2 + alpha / 2) ** 2 + chi_b**2)
    eta_m = math.sqrt((epsilon / 2 - alpha / 2) ** 2 + chi_b**2)
    a_p, a_m = (epsilon + alpha) / 2, (epsilon - alpha) / 2
    g = gamma_b
    em = math.exp(-b * g)
    ep = math.exp(b * g)
    ch_p, sh_p = math.cosh(b * eta_p), math.sinh(b * eta_p)
    ch_m, sh_m = math.cosh(b * eta_m), math.sinh(b * eta_m)
    ce = math.cosh(b * epsilon / 2)
    ca = math.cosh(b * alpha / 2)
    te = (epsilon / 2) * math.tanh(b * epsilon / 2)
    ta = (alpha / 2) * math.tanh(b * alpha / 2)
    # initial-state Boltzmann weights of S in the sz_S eigenbasis
    pop_m = math.exp(-b * epsilon / 2) / (2 * ce)
    pop_p = math.exp(b * epsilon / 2) / (2 * ce)

    log_x_m, log_x_p = math.log(sb.x_minus), math.log(sb.x_plus)
    log_2ca, log_z_ratio = math.log(2 * ca), math.log(sb.z_sur / (4 * ce * ca))

    free_term = (
        2 * a_p * math.sinh(b * a_p)
        - 2 * g * math.cosh(b * a_p)
        + 2 * a_m * math.sinh(b * a_m)
        + 2 * g * math.cosh(b * a_m)
    ) / (4 * ce * ca)
    w_diff = te + ta - free_term
    w_hstar = -((pop_m * log_x_m + pop_p * log_x_p) - log_2ca) / b + te
    w_estar = te + ta - (
        pop_m * sb.d_beta_x_minus / sb.x_minus
        + pop_p * sb.d_beta_x_plus / sb.x_plus
    )

    q_diff = (
        2 * g * (em * ch_p - ep * ch_m)
        - 2 * eta_p * em * sh_p
        - 2 * eta_m * ep * sh_m
    ) / sb.z_sur + free_term
    q_hstar = (
        (pop_m - sb.x_minus / sb.z_sur) * log_x_m
        + (pop_p - sb.x_plus / sb.z_sur) * log_x_p
    ) / b
    q_estar = (
        (pop_m / sb.x_minus - 1.0 / sb.z_sur) * sb.d_beta_x_minus
        + (pop_p / sb.x_plus - 1.0 / sb.z_sur) * sb.d_beta_x_plus
    )

    delta_f_s = -math.log((em * ch_p + ep * ch_m) / (2 * ce * ca)) / b

    ds_diff = (
        b * te + b * ta
        - b * (sb.d_beta_x_minus + sb.d_beta_x_plus) / sb.z_sur
        + log_z_ratio
    )
    ds_hstar = (
        b * te
        - (sb.x_minus * log_x_m + sb.x_plus * log_x_p) / sb.z_sur
        + log_2ca
        + log_z_ratio
    )

    return ThermoLedger.assemble(
        (w_diff, w_hstar, w_estar),
        (q_diff, q_hstar, q_estar),
        delta_f_s,
        (ds_diff, ds_hstar, ds_diff),
        b,
        equilibrated=True,
    )


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

