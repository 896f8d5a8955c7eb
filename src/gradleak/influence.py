"""Closed-form recovery-risk metrics built on the mixed Jacobian.

The central quantity is b = (J J^T + eps I)^{-1} J delta for a gradient
perturbation delta; ||b|| approximates how far the reconstructed sample
moves.  Four interchangeable solvers are provided (dense, least-squares
gradient descent, conjugate gradient, Neumann recursion), all matrix-free
except the dense one, plus spectral utilities and the certified bound
from the Lipschitz constants of the gradient and the Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .models import MixedJacobianOperator, _basis, check_budget

SOLVER_MODES = ("gradient_descent", "conjugate_gradient", "neumann", "dense")


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "conjugate_gradient"
    epsilon: float = 1.0
    max_iters: int = 500
    tolerance: float = 1e-10
    step_size: float | None = None  # gradient_descent; default 1/(lambda_max+eps)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.epsilon < 0 or self.tolerance <= 0 or self.max_iters < 1:
            raise ValueError("need epsilon >= 0, tolerance > 0, max_iters >= 1")


@dataclass
class I2FReport:
    exact_value: float = float("nan")
    lower_bound: float = float("nan")
    solution: np.ndarray | None = None
    iterations: int = 0
    residual: float = float("nan")
    lambda_max: float = float("nan")
    converged: bool = True


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray      # of J J^T, descending
    singular_values: np.ndarray  # sqrt of the above
    rank: int
    rank_threshold: float
    J: np.ndarray | None = None  # the dense mixed Jacobian, d_x x d_theta
    U: np.ndarray | None = None  # eigenvectors of J J^T, columns in eigenvalue order

    def right_vector(self, i):
        """Unit right singular vector J^T u_i / sigma_i, for 0 <= i < rank,
        signed so that its largest-magnitude entry (the first, on ties) is
        positive: the sign of a singular pair is otherwise LAPACK's choice."""
        if not 0 <= i < self.rank:
            raise IndexError(f"singular index {i} out of range for rank {self.rank}")
        v = self.J.T @ self.U[:, i] / self.singular_values[i]
        return -v if v[np.argmax(np.abs(v))] < 0 else v

RANK_THRESHOLD_REL = 1e-10  # eigenvalue below this fraction of the max counts as zero


def lambda_max_power_iteration(operator: MixedJacobianOperator, iters=200, tol=1e-9, seed=0):
    """Largest eigenvalue of J J^T: the top Ritz value of a fully
    reorthogonalized Lanczos iteration on v -> J (J^T v).

    Returns (lam, iterations, converged, trace); trace[k] is the top Ritz
    value of the (k+1)-dimensional Krylov space, which holds the k-th power
    iterate, so it is at least that iterate's Rayleigh quotient and never
    above lambda_max.  Converged means the residual ||A y - theta y|| =
    beta_k |s_k| is at most tol * theta, or the Krylov space is exhausted.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    q = rng.normal(size=operator.d_x)
    Q = (q / np.linalg.norm(q))[None, :]  # orthonormal Krylov basis, one row per step
    alpha, beta, trace = [], [], []
    for k in range(1, iters + 1):
        w = operator.jvp(operator.vjp(Q[-1]))
        h = Q @ w
        w = w - Q.T @ h
        h2 = Q @ w  # second Gram-Schmidt pass: twice is enough
        w = w - Q.T @ h2
        alpha.append(float(h[-1] + h2[-1]))
        b = float(np.linalg.norm(w))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, S = np.linalg.eigh(T)
        lam = float(theta[-1])
        trace.append(lam)
        if b == 0.0 or k == operator.d_x or b * abs(S[-1, -1]) <= tol * lam:
            return lam, k, True, trace
        beta.append(b)
        Q = np.vstack([Q, w / b])
    return lam, iters, False, trace


def _normal_matvec(operator, eps):
    return lambda s: operator.jvp(operator.vjp(s)) + eps * s


def i2f_exact(operator: MixedJacobianOperator, delta, cfg: SolverConfig,
              budget=10_000_000) -> I2FReport:
    """||(J J^T + eps I)^{-1} J delta|| with the configured solver."""
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    if delta.size != operator.d_theta:
        raise ValueError(f"delta length {delta.size} != d_theta {operator.d_theta}")
    eps = cfg.epsilon
    rep = I2FReport()
    c = operator.jvp(delta)  # J delta
    matvec = _normal_matvec(operator, eps)

    if cfg.mode == "dense":
        J = _dense_from_operator(operator, budget)
        A = J @ J.T + eps * np.eye(operator.d_x)
        b = np.linalg.solve(A, J @ delta)
        rep.iterations = 1
    elif cfg.mode == "conjugate_gradient":
        b, rep.iterations, rep.converged = _conjugate_gradient(matvec, c, cfg.max_iters, cfg.tolerance)
    elif cfg.mode == "gradient_descent":
        lam, _, _, _ = lambda_max_power_iteration(operator, seed=cfg.seed)
        step = cfg.step_size if cfg.step_size is not None else 1.0 / (lam + eps)
        b = np.zeros_like(c)
        rep.converged = False
        for it in range(1, cfg.max_iters + 1):
            r = matvec(b) - c
            b = b - step * r
            if np.linalg.norm(r) <= cfg.tolerance * max(1.0, np.linalg.norm(c)):
                rep.converged = True
                break
        rep.iterations = it
    else:  # neumann, pre-scaled so the recursion contracts
        lam, _, _, _ = lambda_max_power_iteration(operator, seed=cfg.seed)
        alpha = 1.0 / (lam + eps)
        s = alpha * c
        rep.converged = False
        for it in range(1, cfg.max_iters + 1):
            s = s - alpha * matvec(s) + alpha * c
            r = matvec(s) - c
            if np.linalg.norm(r) <= cfg.tolerance * max(1.0, np.linalg.norm(c)):
                rep.converged = True
                break
        b = s
        rep.iterations = it

    rep.solution = b
    rep.residual = float(np.linalg.norm(matvec(b) - c))
    rep.exact_value = float(np.linalg.norm(b))
    return rep


def _dense_from_operator(operator, budget):
    """Dense J, one row per VJP."""
    check_budget(operator, budget)
    rows = [operator.vjp(_basis(operator.d_x, i)) for i in range(operator.d_x)]
    return np.stack(rows, axis=0)


def _conjugate_gradient(matvec, c, max_iters, tol):
    b = np.zeros_like(c)
    r = c - matvec(b)
    p = r.copy()
    rs = float(r @ r)
    target = tol * max(1.0, np.linalg.norm(c))
    for it in range(1, max_iters + 1):
        if np.sqrt(rs) <= target:
            return b, it - 1, True
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        b = b + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return b, max_iters, np.sqrt(rs) <= target


def i2f_lower_bound(operator: MixedJacobianOperator, delta, iters=200, tol=1e-9, seed=0,
                    epsilon=0.0) -> I2FReport:
    """||J delta|| / (lambda_max(J J^T) + epsilon), the cheap floor under
    ||(J J^T + epsilon I)^{-1} J delta||.  The Lanczos Ritz value approaches
    lambda_max from below, so the floor holds once it has `converged`."""
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    lam, n_it, converged, _ = lambda_max_power_iteration(operator, iters=iters, tol=tol, seed=seed)
    rep = I2FReport()
    rep.lambda_max = lam
    rep.iterations = n_it
    rep.converged = converged
    rep.lower_bound = float(np.linalg.norm(operator.jvp(delta)) / (lam + epsilon))
    return rep


def dense_spectrum(operator: MixedJacobianOperator, budget=10_000_000) -> SpectrumReport:
    """The one factorization of J: eigendecomposition of the d_x x d_x
    Gram matrix J J^T, whose eigenvectors are J's left singular vectors."""
    J = _dense_from_operator(operator, budget)
    eig, U = np.linalg.eigh(J @ J.T)
    eig, U = np.clip(eig[::-1], 0.0, None), U[:, ::-1]
    thresh = RANK_THRESHOLD_REL * (eig[0] if eig.size else 0.0)
    rank = int(np.sum(eig > thresh))
    return SpectrumReport(eigenvalues=eig, singular_values=np.sqrt(eig), rank=rank,
                          rank_threshold=thresh, J=J, U=U)


class SingularSpectrumError(ValueError):
    pass


def expected_gaussian_risk(spectrum: SpectrumReport, variance=1.0, epsilon=0.0) -> float:
    """E ||(J J^T + eps I)^{-1} J delta||^2 for delta ~ N(0, variance I).

    With eps = 0 this is variance * sum(1/lambda_i) over the nonzero
    eigenvalues of J J^T and requires a full-rank spectrum.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    eig = spectrum.eigenvalues
    if epsilon == 0.0:
        if np.any(eig <= spectrum.rank_threshold):
            raise SingularSpectrumError(
                "spectrum has eigenvalues at the rank threshold; "
                "pass epsilon > 0 to use the damped expectation")
        return float(variance * np.sum(1.0 / eig))
    return float(variance * np.sum(eig / (eig + epsilon) ** 2))


def theorem_bound(j_norm, mu_l, mu_j, g0, delta, jdelta_norm) -> float:
    """Certified recovery-error floor ||J d|| / (mu_L ||J|| + 2 mu_J ||g0 + d||)."""
    if mu_l < 0 or mu_j < 0 or (mu_l == 0 and mu_j == 0):
        raise ValueError("need mu_l > 0 or mu_j > 0, both non-negative")
    g0 = np.asarray(g0, dtype=np.float64).reshape(-1)
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    denom = mu_l * j_norm + 2.0 * mu_j * np.linalg.norm(g0 + delta)
    if denom == 0.0:
        raise ValueError("zero denominator in certified bound")
    return float(jdelta_norm / denom)


@dataclass(frozen=True)
class LipschitzEstimate:
    mu_l: float
    mu_j: float
    n_pairs: int
    radius: float


def estimate_lipschitz(spec, params, samples, n_pairs=10, radius=1e-2, seed=0,
                       power_iters=50) -> LipschitzEstimate:
    """Empirical max-over-pairs estimates of the gradient/Jacobian Lipschitz
    constants w.r.t. the input.  Pairs are (x, x + radius * unit direction)."""
    if n_pairs < 1 or radius <= 0:
        raise ValueError("need n_pairs >= 1 and radius > 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    mu_l = 0.0
    mu_j = 0.0
    for k in range(n_pairs):
        sample = samples[k % len(samples)]
        x = np.asarray(sample.image, dtype=np.float64)
        y = sample.label
        direction = rng.normal(size=x.shape)
        direction /= np.linalg.norm(direction)
        x2 = x + radius * direction
        dist = radius
        op1 = MixedJacobianOperator(spec, params, x, y)
        op2 = MixedJacobianOperator(spec, params, x2, y)
        mu_l = max(mu_l, float(np.linalg.norm(op1.g_theta - op2.g_theta) / dist))
        diff = SimpleNamespace(d_x=spec.d_x, jvp=lambda v: op1.jvp(v) - op2.jvp(v),
                               vjp=lambda b: op1.vjp(b) - op2.vjp(b))  # J - J'
        lam, _, _, _ = lambda_max_power_iteration(diff, iters=power_iters,
                                                  seed=int(rng.integers(2 ** 63)))
        mu_j = max(mu_j, float(np.sqrt(max(lam, 0.0)) / dist))
    return LipschitzEstimate(mu_l=mu_l, mu_j=mu_j, n_pairs=n_pairs, radius=radius)
