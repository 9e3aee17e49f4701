"""POVM reconstruction as simplex-constrained regularized least squares.

The detector POVM is recovered from measured outcome frequencies by
minimizing

    || Pi @ Q - P ||_F^2  +  reg_weight * sum_n sum_m (Pi[n, m+1] - Pi[n, m])^2

over column-stochastic matrices Pi, where Q holds the Poisson probe
weights and P the measured probabilities. The solver is monotone FISTA
with restart (Beck & Teboulle, SIAM J. Imaging Sci. 2, 183 (2009);
O'Donoghue & Candes, arXiv:1204.3982): a gradient step of Lipschitz size s
from Y = Pi_k + b (Pi_k - Pi_{k-1}), b = max(j-1, 0)/(j+2) after j steps
since the last restart, then an exact Euclidean projection P of every column
onto the probability simplex, so the iterates are always feasible. The
gradient is affine, so its value at Y combines the last two gradients. A
step that raises the objective is redone with b = 0, a restart, so the
objective never rises.

Its optimality certificate is the norm of the gradient mapping,

    ||G(Pi)||_F = ||Pi - P(Pi - s * grad f(Pi))||_F / s,

which is zero exactly at a minimizer. A plain step from Pi_k gives it as
||Pi_{k+1} - Pi_k||_F / s, so checking it costs one norm. An extrapolated
step whose own norm falls to ``tol`` makes the next step plain; the solve
stops at the first iterate whose plain step certifies it and reports that
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CountTable
from .photon_stats import (
    PovmMatrix,
    ProbeEnsemble,
    _check_number,
    binomial_povm,
    probe_q_matrix,
)

__all__ = [
    "ReconstructionConfig",
    "ReconstructionResult",
    "project_simplex",
    "reconstruct_povm",
]

# Spectral norm bound for the first-difference Laplacian on a path.
_LAPLACIAN_NORM_BOUND = 4.0


@dataclass(frozen=True)
class ReconstructionConfig:
    """Solver settings for :func:`reconstruct_povm`.

    Attributes:
        truncation: Photon-number cutoff M (columns m = 0 .. M-1), >= 1.
        n_outcomes: Outcome count N, >= 2; must match the count table.
        reg_weight: Weight of the smoothness regularizer along m, >= 0. The
            default is deliberately small: columns outside the probe
            support are anchored to the data only through Poisson tail
            weights as small as ~1e-3, so their effective curvature in
            the data term is ~1e-6, and a heavier penalty visibly
            flattens those columns toward their probed neighbours
            (weight 1e-3 drags the m=0 column fidelity below 0.95 even
            on noise-free input).
        max_iters: Iteration cap, >= 1.
        tol: Gradient-mapping norm, >= 0, at or below which the solve stops
            (the module docstring defines it). Tighter values are reached
            but score worse: on exact probabilities from the default design,
            1e-8 stops after about 280 steps with minimum fidelity
            (m <= 100) 0.99999, 1e-9 after about 12 000 with 0.991 and
            1e-10 after about 37 000 with 0.957, because the exact
            ``reg_weight`` 1e-8 optimum is further from the truth.
        init_eta: When given, in [0, 1], iterate from ``binomial_povm(init_eta)``
            instead of uniform columns. The start shapes the result: on
            noisy counts the solve stops at the noise floor within a few
            iterations (2 on the default design), so the reported POVM
            stays close to this start.
    """

    truncation: int = 140
    n_outcomes: int = 12
    reg_weight: float = 1e-8
    max_iters: int = 200_000
    tol: float = 1e-8
    init_eta: float | None = None

    def __post_init__(self):
        _check_number("truncation", self.truncation, "[1, inf)", integer=True)
        _check_number("n_outcomes", self.n_outcomes, "[2, inf)", integer=True)
        _check_number("reg_weight", self.reg_weight, "[0, inf)")
        _check_number("max_iters", self.max_iters, "[1, inf)", integer=True)
        _check_number("tol", self.tol, "[0, inf)")
        if self.init_eta is not None:
            _check_number("init_eta", self.init_eta, "[0, 1]")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Solver output: the POVM plus convergence diagnostics.

    ``stop_reason`` is one of ``"noise_floor"`` (data term reached the
    multinomial noise level of the counts), ``"objective_tol"``
    (gradient-mapping norm <= tol) or ``"max_iters"``.
    ``gradient_mapping_norm`` is that norm at the reported POVM, whatever
    stopped the solve. ``noise_floor`` is None when the table carries no
    raw counts.
    """

    povm: PovmMatrix
    objective_history: np.ndarray
    data_term: float
    reg_term: float
    per_probe_residuals: np.ndarray
    probe_tail_mass: np.ndarray
    converged: bool
    n_iters: int
    stop_reason: str
    noise_floor: float | None
    gradient_mapping_norm: float


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    The one-column case of :func:`_project_columns`.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-D vector")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    return _project_columns(v[:, None])[:, 0]


def _project_columns(mat: np.ndarray) -> np.ndarray:
    """Project every column of ``mat`` onto the probability simplex.

    Standard sorted-threshold algorithm: each projected column is
    ``max(col - theta, 0)`` with ``theta`` chosen so it sums to one.
    """
    n = mat.shape[0]
    u = np.sort(mat, axis=0)[::-1, :]
    css = np.cumsum(u, axis=0)
    ks = np.arange(1, n + 1)[:, None]
    k = np.count_nonzero(u - (css - 1.0) / ks > 0, axis=0)
    theta = (css[k - 1, np.arange(mat.shape[1])] - 1.0) / k
    return np.maximum(mat - theta[None, :], 0.0)


def _objective(pi, q, p, reg_weight):
    """Objective, data term, regularizer, residual and gradient at ``pi``."""
    resid = pi @ q - p
    data = float((resid * resid).sum())
    d = np.diff(pi, axis=1)
    reg = float((d * d).sum())
    grad = 2.0 * (resid @ q.T)
    if reg_weight > 0:
        g = np.zeros_like(pi)
        g[:, :-1] -= d
        g[:, 1:] += d
        grad += 2.0 * reg_weight * g
    return data + reg_weight * reg, data, reg, resid, grad


def reconstruct_povm(
    counts: CountTable,
    ensemble: ProbeEnsemble,
    config: ReconstructionConfig | None = None,
) -> ReconstructionResult:
    """Reconstruct the detector POVM from measured count statistics.

    Poisson probe mass beyond the truncation is folded into the last
    photon-number column (see :func:`probe_q_matrix`); the folded tail
    is reported per probe in the result. Columns pair with the
    ensemble's probes by id (:meth:`ProbeEnsemble.subset`) and are
    solved in id order, so the POVM does not depend on the order of the
    columns or of the ensemble.

    Iteration stops once the gradient-mapping norm (module docstring) is
    at most ``tol``. When the table carries raw counts, it also stops
    once the data term falls to the multinomial noise floor of the
    counts, ``sum_j (1 - sum_n p_nj^2) / n_j`` (discrepancy principle). Pushing
    the fit below that level only transfers counting noise into the
    POVM through the ill-conditioned probe design; stopping there keeps
    statistically silent directions at their initialization while any
    genuine disagreement with the data still drives the fit.

    Raises:
        ValueError: A column id names no probe of the ensemble, mismatched
            outcome dimensions, or non-finite inputs.
    """
    cfg = config if config is not None else ReconstructionConfig()
    if counts.n_outcomes != cfg.n_outcomes:
        raise ValueError(
            f"count table has {counts.n_outcomes} outcomes, "
            f"config expects {cfg.n_outcomes}"
        )

    # Canonical id order makes the result permutation-invariant.
    order = np.argsort(counts.probe_ids)
    paired = ensemble.subset(counts.probe_ids).probes
    probes = ProbeEnsemble(tuple(paired[i] for i in order))
    p = counts.probs[:, order]
    raw = None if counts.counts is None else counts.counts[:, order]
    q, tail = probe_q_matrix(probes, cfg.truncation)

    noise_floor = None
    if raw is not None:
        n_events = raw.sum(axis=0).astype(float)
        noise_floor = float(((1.0 - (p * p).sum(axis=0)) / n_events).sum())

    if cfg.init_eta is not None:
        pi = binomial_povm(cfg.init_eta, cfg.n_outcomes, cfg.truncation).entries.copy()
    else:
        pi = np.full((cfg.n_outcomes, cfg.truncation), 1.0 / cfg.n_outcomes)

    sigma_max = float(np.linalg.svd(q, compute_uv=False)[0])
    lipschitz = 2.0 * (sigma_max**2 + cfg.reg_weight * _LAPLACIAN_NORM_BOUND)
    step = 1.0 / lipschitz

    def mapped_step(beta):
        """Step from the extrapolated point: Pi_{k+1}, the norm at Y, objective."""
        y = pi + beta * (pi - pi_prev)
        pi_new = _project_columns(y - step * (grad + beta * (grad - grad_prev)))
        gmap = float(np.linalg.norm(pi_new - y)) / step
        return pi_new, gmap, _objective(pi_new, q, p, cfg.reg_weight)

    f, data, reg, resid, grad = _objective(pi, q, p, cfg.reg_weight)
    pi_prev, grad_prev = pi, grad
    history = [f]
    converged = False
    stop_reason = "max_iters"
    iters = 0
    if noise_floor is not None and data <= noise_floor:
        converged = True
        stop_reason = "noise_floor"
    else:
        k = 0  # steps since momentum last restarted
        for iters in range(1, cfg.max_iters + 1):
            beta = max(k - 1, 0) / (k + 2)
            pi_new, gmap, new = mapped_step(beta)
            if beta > 0 and new[0] > f:
                # Momentum raised the objective: restart with a plain step.
                beta, k = 0.0, 0
                pi_new, gmap, new = mapped_step(beta)
            if beta == 0 and gmap <= cfg.tol:
                # First-order optimality certificate at pi; keep it.
                converged = True
                stop_reason = "objective_tol"
                iters -= 1
                break
            # After a step this short, a plain step checks the certificate.
            k = 0 if gmap <= cfg.tol else k + 1
            pi_prev, grad_prev = pi, grad
            pi = pi_new
            f, data, reg, resid, grad = new
            history.append(f)
            if noise_floor is not None and data <= noise_floor:
                converged = True
                stop_reason = "noise_floor"
                break
    if stop_reason != "objective_tol":
        gmap = mapped_step(0.0)[1]

    # Report per probe in column order.
    inv = np.argsort(order)
    per_probe = np.sqrt((resid * resid).sum(axis=0))[inv]
    tail = tail[inv]

    return ReconstructionResult(
        povm=PovmMatrix(pi),
        objective_history=np.asarray(history),
        data_term=data,
        reg_term=reg,
        per_probe_residuals=per_probe,
        probe_tail_mass=tail,
        converged=converged,
        n_iters=iters,
        stop_reason=stop_reason,
        noise_floor=noise_floor,
        gradient_mapping_norm=gmap,
    )
