"""Sudden-quench processes: work, heat, entropy ledgers and second-law audits.

A quench replaces the global Hamiltonian A by B at t = 0 while the state is
momentarily unchanged, so the instantaneous internal-energy jump is work.
The subsequent energy exchange up to t_f is heat.  Three internal-energy
definitions (diff, H*, E*) give three parallel ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidSpec, QuenchThermError, SupportMismatch
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    _check_defect,
    _decomposing,
    at_index,
    dagger,
    eigh_stack,
    expectation,
    trace_out_reservoir,
)
from .thermo import (
    ThermalContext,
    _check_beta,
    _check_reservoir,
    _trace_out_weighted,
    thermal_context,
    thermal_entropy,
)

SYSTEM_QUENCH = "system"
INTERACTION_QUENCH = "interaction"
GENERAL_QUENCH = "general"

EQUILIBRATED = "equilibrated"
UNITARY = "unitary"

#: Reported second-law violations must exceed this to count as physics,
#: not round-off.  Dimensionless (k_B = 1): it bounds beta (W - dF_S) and dS - beta Q.
VIOLATION_THRESHOLD = 1e-6

_STRUCTURE_TOL = 1e-10

#: A first-law residual above this times |W| + |Q| + |U_i| + |U_f| means an inconsistent ledger.
_FIRST_LAW_TOL = 1e-9

#: Sigma eigenvalues at or below this count as outside its support.
_SUPPORT_FLOOR = 1e-14


def _check_quench(kind: str, h_sur_a: Operator, h_sur_b: np.ndarray, h_r: Operator,
                  beta: float):
    """Kind name, beta, H_A's bipartite space, the reservoir and the kind's
    structure, for a (N, D, D) stack of B's on H_A's space."""
    if kind not in (SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH):
        raise InvalidSpec(f"unknown quench kind {kind!r}")
    _check_beta(beta, InvalidSpec)
    if len(h_sur_a.dims) != 2:
        raise InvalidSpec(f"global Hamiltonians must share a bipartite space, got {h_sur_a.dims}")
    _check_reservoir(h_sur_a.dims, h_r)
    if kind == SYSTEM_QUENCH:
        _check_acts_on_s_only(h_sur_b, h_sur_a.matrix, h_sur_a.dims)
    elif kind == INTERACTION_QUENCH:
        _check_acts_on_s_only(h_sur_a.matrix[None], np.kron(np.eye(h_sur_a.dims[0]), h_r.matrix),
                              h_sur_a.dims)


def _check_acts_on_s_only(b: np.ndarray, a: np.ndarray, dims: tuple[int, int]):
    """Each member of a stack b - a must be (S operator) x identity, relative to max |a|, |b|."""
    ops, d_r = b - a, dims[1]
    on_s = trace_out_reservoir(ops, dims) * (1.0 / d_r)
    lifted = (on_s[:, :, None, :, None] * np.eye(d_r)[:, None, :]).reshape(ops.shape)
    scale = np.maximum(np.abs(b).max(axis=(-2, -1)), np.abs(a).max(axis=(-2, -1)))
    _check_defect(ops, lifted, _STRUCTURE_TOL * scale, InvalidSpec,
                  "operator is not of the form (S operator) x identity; defect {:.3e}")


@dataclass(frozen=True)
class QuenchSpec:
    """Pre/post global Hamiltonians, bare reservoir Hamiltonian, and protocol.

    Construction checks the inputs, then caches H_A's, H_B's and H_R's eigenpairs, raising
    in that order; H_B's `eigh` may run meanwhile on a worker thread (`_decomposing`)."""

    h_sur_a: Operator
    h_sur_b: Operator
    h_r: Operator
    beta: float
    kind: str = GENERAL_QUENCH
    final_mode: str = EQUILIBRATED
    t_f: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t_f):
            raise InvalidSpec(f"t_f must be finite, got {self.t_f}")
        if self.final_mode not in (EQUILIBRATED, UNITARY):
            raise InvalidSpec(f"unknown final mode {self.final_mode!r}")
        self.h_sur_a._check_same_space(self.h_sur_b)
        # NotHermitian here; the contexts read these cached eigenpairs anyway
        with _decomposing(self.h_sur_b):
            _check_quench(self.kind, self.h_sur_a, self.h_sur_b.matrix[None], self.h_r, self.beta)
            if self.h_sur_a is not self.h_sur_b:
                self.h_sur_a.eig
        self.h_sur_b.eig, self.h_r.eig

    @cached_property
    def _contexts(self) -> tuple[ThermalContext, ThermalContext, np.ndarray]:
        """The contexts of H_A and H_B and their overlap C = U_B^dag U_A, (1, D, D),
        computed once for `run_quench` and `second_law_audit`, from the cached eigenpairs."""
        ctx_a, ctx_b = (thermal_context(h, self.h_r, self.beta)
                        for h in (self.h_sur_a, self.h_sur_b))
        return ctx_a, ctx_b, _eigen_overlap(ctx_a, ctx_b)


@dataclass(frozen=True)
class ThermoLedger:
    """Full output record of one quench process, engine or closed form.

    It stores what a quench computes and derives the rest on read: the
    dissipated works W - dF_S and the second-law flags beta (W - dF_S) >= 0
    and dS - beta Q >= 0, each against -VIOLATION_THRESHOLD; the heat flags are None
    unless the final state is equilibrated.  Fields may hold (N,) columns of
    N quenches, which `_records` splits; beta and equilibrated may be shared scalars.
    """

    w_diff: float
    w_hstar: float
    w_estar: float
    q_diff: float
    q_hstar: float
    q_estar: float
    delta_f_s: float
    delta_s_diff: float
    delta_s_hstar: float
    delta_s_estar: float
    beta: float
    equilibrated: bool

    FIELDS = (
        "w_diff", "w_hstar", "w_estar",
        "q_diff", "q_hstar", "q_estar",
        "delta_f_s",
        "delta_s_diff", "delta_s_hstar", "delta_s_estar",
        "diss_diff", "diss_hstar", "diss_estar",
    )

    diss_diff = property(lambda self: self.w_diff - self.delta_f_s)
    diss_hstar = property(lambda self: self.w_hstar - self.delta_f_s)
    diss_estar = property(lambda self: self.w_estar - self.delta_f_s)

    @property
    def second_law_w(self) -> tuple[bool, bool, bool]:
        return tuple(self.beta * d >= -VIOLATION_THRESHOLD
                     for d in (self.diss_diff, self.diss_hstar, self.diss_estar))

    @property
    def second_law_q(self) -> tuple[bool, bool, bool] | None:
        if not self.equilibrated:
            return None
        return tuple(ds - self.beta * q >= -VIOLATION_THRESHOLD for ds, q in (
            (self.delta_s_diff, self.q_diff), (self.delta_s_hstar, self.q_hstar),
            (self.delta_s_estar, self.q_estar)))

    def numeric_fields(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}


def _records(columns: ThermoLedger) -> list[ThermoLedger]:
    """One record of Python scalars per quench of a ledger of (N,) columns."""
    values = np.broadcast_arrays(*(getattr(columns, f.name) for f in fields(columns)))
    return [ThermoLedger(*record) for record in zip(*(v.tolist() for v in values))]


def _propagate(evals: np.ndarray, evecs: np.ndarray, overlap: np.ndarray, t: float):
    """e^{-iHt} W from H's eigenpairs (E, U) and the overlap U^dag W, over leading axes."""
    return (evecs * np.exp(-1j * evals * t)[..., None, :]) @ overlap


def evolve_unitary(rho: DensityMatrix, h: Operator, t: float) -> DensityMatrix:
    """Conjugate rho by e^{-iHt}: rho's eigenvalues on the eigenvectors e^{-iHt} V_rho.

    Reads the cached eigenpairs of H and of rho, so it adds no `eigh`.
    """
    if not math.isfinite(t):
        raise InvalidSpec(f"t must be finite, got {t}")
    h._check_same_space(rho.op)
    dec_h, dec_rho = h.eig, rho.op.eig
    evecs = _propagate(dec_h.eigenvalues, dec_h.eigenvectors,
                       dagger(dec_h.eigenvectors) @ dec_rho.eigenvectors, t)
    return DensityMatrix(Operator.from_eig(
        SpectralDecomposition(dec_rho.eigenvalues, evecs, rho.dims)))


def _expectations(ctx: ThermalContext, h_mean: np.ndarray, rho_s: np.ndarray) -> np.ndarray:
    """(3, N) values of <H>, <H*>, <E*> under ctx, from <H> and the reduced states."""
    return np.stack((h_mean, expectation(ctx.h_star, rho_s), expectation(ctx.e_star, rho_s)))


def _energies(ctx: ThermalContext, expectations: np.ndarray) -> np.ndarray:
    """(U_diff, U_H*, U_E*) from `_expectations`: U_diff = <H> - <H_R>_beta."""
    return np.concatenate((expectations[:1] - ctx.u_r, expectations[1:]))


def _eigen_overlap(ctx_a: ThermalContext, ctx_b: ThermalContext) -> np.ndarray:
    """C = U_B^dag U_A, (N, D, D), of ctx_a's one or N Hamiltonians and ctx_b's N."""
    return dagger(ctx_b.evecs) @ ctx_a.evecs


def _ledgers(ctx_a: ThermalContext, ctx_b: ThermalContext, overlap: np.ndarray,
             final_mode: str, t_f: float) -> ThermoLedger:
    """Ledger of (N,) columns, of quenches from ctx_a's one or N Hamiltonians to ctx_b's N.

    Quantities are (3, N) arrays, one row per definition (diff, H*, E*).
    Global energies come in eigen-coordinates from `overlap`, C = U_B^dag U_A:
    pi_A's population p_A,i flows to B's level j as F_ji = |C_ji|^2 p_A,i.
    """
    pi_s_a = ctx_a.rho_s
    e_a, e_b = ctx_a.evals, ctx_b.evals
    flow = np.abs(overlap) ** 2 * ctx_a.populations[:, None, :]
    h_b_0 = (flow.sum(axis=-1) * e_b).sum(axis=-1)  # <H_B> in pi_A

    # Work: energy jump at t = 0 with the state frozen at pi_A.  The diff row
    # sums the gap E_B,j - E_A,i of each pair, so no two O(||H||) sums cancel.
    works = np.stack((
        (flow * (e_b[:, :, None] - e_a[:, None, :])).sum(axis=(-2, -1)),
        expectation(ctx_b.h_star - ctx_a.h_star, pi_s_a),
        expectation(ctx_b.e_star - ctx_a.e_star, pi_s_a),
    ))

    # Heat: energy change from t = 0+ to t_f under the fixed Hamiltonian B.
    at_b = _expectations(ctx_b, (e_b * ctx_b.populations).sum(axis=-1), ctx_b.rho_s)
    if final_mode == EQUILIBRATED:
        at_f = at_b
    else:
        # pi_A's eigenvectors carried to t_f; H_B's evolution conserves <H_B>
        vecs = _propagate(e_b, ctx_b.evecs, overlap, t_f)
        at_f = _expectations(ctx_b, h_b_0,
                             _trace_out_weighted(vecs, ctx_a.populations, ctx_b.dims))
    heats = at_f - _expectations(ctx_b, h_b_0, pi_s_a)

    delta_f_s = ctx_b.f_s - ctx_a.f_s

    # pi_A is A's equilibrium state, B's is the equilibrated final state
    h_a = (e_a * ctx_a.populations).sum(axis=-1)
    u_a = _energies(ctx_a, _expectations(ctx_a, h_a, pi_s_a))
    u_f, u_b = _energies(ctx_b, at_f), _energies(ctx_b, at_b)
    _check_first_law(works, heats, u_a, u_f)

    # Entropy changes between the equilibrium endpoints (independent of t_f).
    delta_s = (thermal_entropy(u_b, ctx_b.f_s, ctx_b.beta)
               - thermal_entropy(u_a, ctx_a.f_s, ctx_a.beta))
    return ThermoLedger(*works, *heats, delta_f_s, *delta_s, ctx_b.beta,
                        final_mode == EQUILIBRATED)


def run_quench(spec: QuenchSpec) -> ThermoLedger:
    """Execute a sudden quench and assemble its three-way thermodynamic ledger."""
    return _records(_ledgers(*spec._contexts, spec.final_mode, spec.t_f))[0]


def run_sweep(
    h_sur_a: Operator, h_sur_b_stack: np.ndarray, h_r: Operator, beta: float,
    kind: str = GENERAL_QUENCH,
) -> ThermoLedger:
    """Equilibrated quenches from H_A to each member of a (N, D, D) stack.

    One ledger whose fields are (N,) columns: member k, entry k of every
    column, equals `run_quench` on the matching `QuenchSpec`.  It comes from
    one context of the (N + 1, D, D) stack [H_A; stack]: one broadcasting
    global `eigh`.  The stack shares H_A's dims; every member gets the checks
    a `QuenchSpec` makes, and errors name H_A or the first bad member of the
    caller's stack.
    """
    stack = np.asarray(h_sur_b_stack)
    if stack.ndim != 3 or len(stack) == 0 or stack.shape[1:] != h_sur_a.matrix.shape:
        raise InvalidSpec(f"post-quench stack must have shape (N, {h_sur_a.side}, "
                          f"{h_sur_a.side}) with N >= 1, got {stack.shape}")
    _check_quench(kind, h_sur_a, stack, h_r, beta)
    return _stack_ledgers(np.concatenate((h_sur_a.matrix[None], stack)), h_sur_a.dims, beta,
                          h_r.eig.eigenvalues, slice(1), slice(1, None))


def _stack_ledgers(hams: np.ndarray, dims: tuple[int, int], beta, reservoir: np.ndarray,
                   pre: slice, post: slice) -> ThermoLedger:
    """Equilibrated quenches of a (M, D, D) stack's `pre` members to its `post` ones: from one
    to each, or member k to member k.  beta is shared or an (M,) column, the bare H_R's
    spectrum shared (d_r,) or (M, d_r); the context derives ln Z_R and <H_R>_beta from them.
    One context, so one broadcasting global `eigh`; when it fails, each side is redone alone,
    so the error names a member by its index in its side, a one-member side without one."""
    beta = np.full(len(hams), beta, float)
    reservoir = np.broadcast_to(reservoir, (len(hams), reservoir.shape[-1]))
    try:
        ctx = ThermalContext.build(*eigh_stack(hams), dims, beta, reservoir)
    except (QuenchThermError, ValueError):
        for side in (pre, post):
            ThermalContext.build(*eigh_stack(hams[side]), dims, beta[side], reservoir[side])
        raise
    ctx_a, ctx_b = ctx._members(pre), ctx._members(post)
    return _ledgers(ctx_a, ctx_b, _eigen_overlap(ctx_a, ctx_b), EQUILIBRATED, 0.0)


def _check_first_law(works, heats, u_initial, u_final):
    residual = np.abs(works + heats - (u_final - u_initial))
    ok = residual <= _FIRST_LAW_TOL * (abs(works) + abs(heats) + abs(u_initial) + abs(u_final))
    if not np.all(ok):  # NaN fails too
        k, n = np.unravel_index(np.argmin(ok), residual.shape)
        name = ("diff", "hstar", "estar")[k]
        raise QuenchThermError(
            f"first-law residual {residual[k, n]:.3e} for definition "
            f"{name}{at_index(n, residual.shape[1])}"
        )


def _relative_entropy(p: np.ndarray, log_p: np.ndarray, overlap: np.ndarray,
                      log_q: np.ndarray) -> float:
    """Tr(rho (ln rho - ln sigma)) = p . ln p - (|C|^2 p) . ln q, for rho =
    U diag(p) U^dag, sigma = V diag(q) V^dag and their overlap C = V^dag U."""
    value = float(p @ log_p - (np.abs(overlap) ** 2 @ p) @ log_q)
    if value < -1e-12:
        raise QuenchThermError(f"relative entropy {value:.3e} below -1e-12")
    return max(value, 0.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy Tr(rho (ln rho - ln sigma)), nonnegative.

    Reads both states' cached eigenpairs, so states the engine built (as
    `gibbs(h, beta).state`) need no `eigh`.  Raises SupportMismatch when
    sigma is effectively rank-deficient where rho carries weight, signalling
    a divergent value.
    """
    rho.op._check_same_space(sigma.op)
    dec_r, dec_s = rho.op.eig, sigma.op.eig
    p, q = np.clip(dec_r.eigenvalues, 0.0, None), dec_s.eigenvalues
    overlap = dagger(dec_s.eigenvectors) @ dec_r.eigenvectors
    bad = (q <= _SUPPORT_FLOOR) & (np.abs(overlap) ** 2 @ p > 1e-10)
    if np.any(bad):
        raise SupportMismatch(f"sigma eigenvalue(s) {q[bad]} below floor where rho has weight")
    return _relative_entropy(p, np.log(np.where(p > 0, p, 1.0)), overlap,
                             np.log(np.clip(q, _SUPPORT_FLOOR, None)))


@dataclass(frozen=True)
class SecondLawAudit:
    """Residuals of the relative-entropy equalities for dissipated work."""

    residual_diff: float
    residual_hstar: float


def second_law_audit(spec: QuenchSpec, ledger: ThermoLedger) -> SecondLawAudit:
    """Check beta (W - dF_S) = D(pi_A || pi_B) for the diff and H* ledgers.

    The dissipated work equals beta^{-1} D(pi_A || pi_B) exactly for the diff
    definition (global states) and the H* definition (reduced states); the
    reported residuals quantify how well the computed ledger matches that.
    Both relative entropies come from log-populations, exact where a Gibbs
    population underflows, and the global one from the quench's overlap C.
    The second-law flags themselves live on the ledger.
    """
    beta, (ctx_a, ctx_b, overlap) = spec.beta, spec._contexts
    d_global = _relative_entropy(ctx_a.populations[0], ctx_a.log_populations[0],
                                 overlap[0], ctx_b.log_populations[0])
    d_reduced = _relative_entropy(np.exp(ctx_a.log_rho_s[0]), ctx_a.log_rho_s[0],
                                  dagger(ctx_b.m_evecs[0]) @ ctx_a.m_evecs[0], ctx_b.log_rho_s[0])
    residual_diff = abs(beta * ledger.diss_diff - d_global)
    residual_hstar = abs(beta * ledger.diss_hstar - d_reduced)
    return SecondLawAudit(residual_diff, residual_hstar)
