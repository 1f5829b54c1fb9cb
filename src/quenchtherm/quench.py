"""Sudden-quench processes: work, heat, entropy ledgers and second-law audits.

A quench replaces the global Hamiltonian A by B at t = 0 while the state is
momentarily unchanged, so the instantaneous internal-energy jump is work.
The subsequent energy exchange up to t_f is heat.  Three internal-energy
definitions (diff, H*, E*) give three parallel ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, QuenchThermError, SupportMismatch
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    at_index,
    dagger,
    eigh_stack,
    expectation,
    trace_out_reservoir,
)
from .thermo import (
    GibbsEnsemble,
    ThermalContext,
    gibbs,
    thermal_entropy,
)

SYSTEM_QUENCH = "system"
INTERACTION_QUENCH = "interaction"
GENERAL_QUENCH = "general"

EQUILIBRATED = "equilibrated"
UNITARY = "unitary"

#: Reported second-law violations must exceed this to count as physics,
#: not round-off.
VIOLATION_THRESHOLD = 1e-6

_STRUCTURE_TOL = 1e-10

#: First-law residuals above this mean the ledger is inconsistent.
_FIRST_LAW_TOL = 1e-9

#: Sigma eigenvalues at or below this count as outside its support.
_SUPPORT_FLOOR = 1e-14


def _check_quench(kind: str, final_mode: str, h_sur_a: Operator,
                  h_sur_b: np.ndarray, dims_b: tuple[int, ...], h_r: Operator):
    """Protocol names, shared spaces and kind structure for a stack of B's."""
    if kind not in (SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH):
        raise InvalidSpec(f"unknown quench kind {kind!r}")
    if final_mode not in (EQUILIBRATED, UNITARY):
        raise InvalidSpec(f"unknown final mode {final_mode!r}")
    if len(h_sur_a.dims) != 2 or h_sur_a.dims != dims_b:
        raise InvalidSpec(
            f"global Hamiltonians must share a bipartite space, got "
            f"{h_sur_a.dims} and {dims_b}"
        )
    if h_r.dims != (h_sur_a.dims[1],):
        raise InvalidSpec(
            f"reservoir dims {h_r.dims} inconsistent with "
            f"global dims {h_sur_a.dims}"
        )
    if kind == SYSTEM_QUENCH:
        _check_acts_on_s_only(h_sur_b - h_sur_a.matrix, h_sur_a.dims)
    elif kind == INTERACTION_QUENCH:
        bare = h_sur_a.matrix - np.kron(np.eye(h_sur_a.dims[0]), h_r.matrix)
        _check_acts_on_s_only(bare[None], h_sur_a.dims)


def _check_acts_on_s_only(ops: np.ndarray, dims: tuple[int, int]):
    """Each member of a stack must be (S operator) x identity."""
    d_r = dims[1]
    on_s = trace_out_reservoir(ops, dims) * (1.0 / d_r)
    lifted = (on_s[:, :, None, :, None] * np.eye(d_r)[:, None, :]).reshape(ops.shape)
    defect = np.abs(ops - lifted).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(ops).max(axis=(-2, -1)))
    bad = defect > _STRUCTURE_TOL * scale
    if np.any(bad):
        n = int(np.argmax(bad))
        raise InvalidSpec(
            f"operator is not of the form (S operator) x identity; "
            f"defect {defect[n]:.3e}{at_index(n, len(ops))}"
        )


@dataclass(frozen=True)
class QuenchSpec:
    """Pre/post global Hamiltonians, bare reservoir Hamiltonian, and protocol."""

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
        _check_quench(self.kind, self.final_mode, self.h_sur_a,
                      self.h_sur_b.matrix[None], self.h_sur_b.dims, self.h_r)

    @cached_property
    def _reservoir(self) -> GibbsEnsemble:
        return gibbs(self.h_r, self.beta)

    @cached_property
    def context_a(self) -> ThermalContext:
        """Equilibrium quantities of the pre-quench Hamiltonian, computed once."""
        return ThermalContext.of(self.h_sur_a, self._reservoir)

    @cached_property
    def context_b(self) -> ThermalContext:
        """Equilibrium quantities of the post-quench Hamiltonian, computed once."""
        return ThermalContext.of(self.h_sur_b, self._reservoir)


@dataclass(frozen=True)
class ThermoLedger:
    """Full output record of one quench process, engine or closed form."""

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
    diss_diff: float
    diss_hstar: float
    diss_estar: float
    second_law_w: tuple[bool, bool, bool]
    second_law_q: tuple[bool, bool, bool] | None
    beta: float

    FIELDS = (
        "w_diff", "w_hstar", "w_estar",
        "q_diff", "q_hstar", "q_estar",
        "delta_f_s",
        "delta_s_diff", "delta_s_hstar", "delta_s_estar",
        "diss_diff", "diss_hstar", "diss_estar",
    )

    def numeric_fields(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def assemble(cls, works, heats, delta_f_s: float, delta_s, beta: float,
                 equilibrated: bool) -> ThermoLedger:
        """Ledger from (diff, H*, E*) works, heats and entropy changes.

        Derives the dissipated works W - dF_S and the second-law flags
        W >= dF_S and Q <= dS / beta, each against VIOLATION_THRESHOLD; the
        heat flags are None unless the final state is equilibrated.
        """
        diss = [w - delta_f_s for w in works]
        flags_q = None
        if equilibrated:
            flags_q = tuple(ds / beta - q >= -VIOLATION_THRESHOLD
                            for ds, q in zip(delta_s, heats))
        return cls(*works, *heats, delta_f_s, *delta_s, *diss,
                   second_law_w=tuple(d >= -VIOLATION_THRESHOLD for d in diss),
                   second_law_q=flags_q, beta=beta)


def _evolve(rho: np.ndarray, evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """rho conjugated by e^{-iHt} from H's eigenpairs, over leading axes."""
    u = evecs * np.exp(-1j * evals * t)[..., None, :]
    return u @ (dagger(evecs) @ rho @ evecs) @ dagger(u)


def evolve_unitary(rho: DensityMatrix, h: Operator, t: float) -> DensityMatrix:
    """Conjugate rho by e^{-iHt}: rho's eigenvalues on the eigenvectors e^{-iHt} V_rho.

    Reads the cached eigenpairs of H and of rho, so it adds no `eigh`.
    """
    dec_h, dec_rho = h.eig, rho.op.eig
    u = dec_h.eigenvectors * np.exp(-1j * dec_h.eigenvalues * t)
    evecs = u @ (dagger(dec_h.eigenvectors) @ dec_rho.eigenvectors)
    return DensityMatrix(Operator.from_eig(
        SpectralDecomposition(dec_rho.eigenvalues, evecs, rho.dims)))


def _expectations(ctx: ThermalContext, rho: np.ndarray, rho_s: np.ndarray) -> np.ndarray:
    """(3, N) values of <H>, <H*>, <E*> under ctx in global and reduced states."""
    return np.stack((
        expectation(ctx.hamiltonians, rho),
        expectation(ctx.h_star, rho_s),
        expectation(ctx.e_star, rho_s),
    ))


def _energies(ctx: ThermalContext, expectations: np.ndarray) -> np.ndarray:
    """(U_diff, U_H*, U_E*) from `_expectations`: U_diff = <H> - <H_R>_beta."""
    return expectations - np.array([[ctx.u_r], [0.0], [0.0]])


def _ledgers(ctx_a: ThermalContext, ctx_b: ThermalContext,
             final_mode: str, t_f: float) -> list[ThermoLedger]:
    """Ledgers of quenches from ctx_a's one Hamiltonian to each of ctx_b's.

    Quantities are (3, N) arrays, one row per definition (diff, H*, E*).
    """
    beta = ctx_a.beta
    pi_a, pi_s_a = ctx_a.rho, ctx_a.rho_s

    # Work: energy jump at t = 0 with the state frozen at pi_A.
    works = np.stack((
        expectation(ctx_b.hamiltonians - ctx_a.hamiltonians, pi_a),
        expectation(ctx_b.h_star - ctx_a.h_star, pi_s_a),
        expectation(ctx_b.e_star - ctx_a.e_star, pi_s_a),
    ))

    if final_mode == EQUILIBRATED:
        rho_f, rho_s_f = ctx_b.rho, ctx_b.rho_s
    else:
        # same spectrum as pi_A, already checked when ctx_a was built
        rho_f = _evolve(pi_a, ctx_b.evals, ctx_b.evecs, t_f)
        rho_s_f = trace_out_reservoir(rho_f, ctx_b.dims)

    # Heat: energy change from t = 0+ to t_f under the fixed Hamiltonian B.
    at_f = _expectations(ctx_b, rho_f, rho_s_f)
    heats = at_f - _expectations(ctx_b, pi_a, pi_s_a)

    delta_f_s = ctx_b.f_s - ctx_a.f_s

    # pi_A is A's equilibrium state; the final state is B's when equilibrated
    u_a = _energies(ctx_a, _expectations(ctx_a, pi_a, pi_s_a))
    u_f = _energies(ctx_b, at_f)
    if final_mode == EQUILIBRATED:
        u_b = u_f
    else:
        u_b = _energies(ctx_b, _expectations(ctx_b, ctx_b.rho, ctx_b.rho_s))
    _check_first_law(works, heats, u_a, u_f)

    # Entropy changes between the equilibrium endpoints (independent of t_f).
    delta_s = (thermal_entropy(u_b, ctx_b.f_s, beta)
               - thermal_entropy(u_a, ctx_a.f_s, beta))
    equilibrated = final_mode == EQUILIBRATED
    return [
        ThermoLedger.assemble(w, q, df, ds, beta, equilibrated)
        for w, q, df, ds in zip(works.T.tolist(), heats.T.tolist(),
                                delta_f_s.tolist(), delta_s.T.tolist())
    ]


def run_quench(spec: QuenchSpec) -> ThermoLedger:
    """Execute a sudden quench and assemble its three-way thermodynamic ledger."""
    return _ledgers(spec.context_a, spec.context_b, spec.final_mode, spec.t_f)[0]


def run_sweep(
    h_sur_a: Operator, h_sur_b_stack: np.ndarray, h_r: Operator, beta: float,
    kind: str = GENERAL_QUENCH,
) -> list[ThermoLedger]:
    """Equilibrated quenches from H_A to each member of a (N, D, D) stack.

    One ledger per member, equal to `run_quench` on the matching
    `QuenchSpec`, from one broadcasting eigendecomposition of the stack and
    H_A's cached `Operator.eig`: two global `eigh` at most.  The
    stack shares H_A's dims; every member gets the checks a `QuenchSpec`
    makes, and errors name the first bad member.
    """
    stack = np.asarray(h_sur_b_stack, dtype=complex)
    if stack.ndim != 3 or len(stack) == 0 or stack.shape[1:] != h_sur_a.matrix.shape:
        raise InvalidSpec(f"post-quench stack must have shape (N, {h_sur_a.side}, "
                          f"{h_sur_a.side}) with N >= 1, got {stack.shape}")
    _check_quench(kind, EQUILIBRATED, h_sur_a, stack, h_sur_a.dims, h_r)
    reservoir = gibbs(h_r, beta)
    ctx_a = ThermalContext.of(h_sur_a, reservoir)
    ctx_b = ThermalContext.build(stack, *eigh_stack(stack), h_sur_a.dims, reservoir)
    return _ledgers(ctx_a, ctx_b, EQUILIBRATED, 0.0)


def _check_first_law(works, heats, u_initial, u_final):
    residual = np.abs(works + heats - (u_final - u_initial))
    if not np.all(residual <= _FIRST_LAW_TOL):  # NaN fails too
        k, n = np.unravel_index(np.argmin(residual <= _FIRST_LAW_TOL), residual.shape)
        name = ("diff", "hstar", "estar")[k]
        raise QuenchThermError(
            f"first-law residual {residual[k, n]:.3e} for definition "
            f"{name}{at_index(n, residual.shape[1])}"
        )


def _relative_entropy(dec_r: SpectralDecomposition, dec_s: SpectralDecomposition) -> float:
    """Tr(rho (ln rho - ln sigma)) from the eigenpairs of rho and sigma."""
    p = np.clip(dec_r.eigenvalues, 0.0, None)
    q = dec_s.eigenvalues

    overlap = np.abs(dec_r.eigenvectors.conj().T @ dec_s.eigenvectors) ** 2
    weight_on_sigma_modes = p @ overlap
    bad = (q <= _SUPPORT_FLOOR) & (weight_on_sigma_modes > 1e-10)
    if np.any(bad):
        raise SupportMismatch(
            f"sigma eigenvalue(s) {q[bad]} below floor where rho has weight"
        )

    entropy_term = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    cross_term = float(weight_on_sigma_modes @ np.log(np.clip(q, _SUPPORT_FLOOR, None)))
    value = entropy_term - cross_term
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
    if rho.dims != sigma.dims:
        raise DimensionMismatch(f"dims {rho.dims} vs {sigma.dims}")
    return _relative_entropy(rho.op.eig, sigma.op.eig)


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
    The second-law flags themselves live on the ledger.
    """
    beta = spec.beta
    ctx_a, ctx_b = spec.context_a, spec.context_b
    d_global = _relative_entropy(ctx_a.state_spectrum, ctx_b.state_spectrum)
    d_reduced = _relative_entropy(ctx_a.reduced_spectrum, ctx_b.reduced_spectrum)
    residual_diff = abs(beta * ledger.diss_diff - d_global)
    residual_hstar = abs(beta * ledger.diss_hstar - d_reduced)
    return SecondLawAudit(residual_diff, residual_hstar)
