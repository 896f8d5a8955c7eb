"""Closed-form recovery-risk metrics built on the mixed Jacobian.

The central quantity is b = (J J^T + eps I)^{-1} J delta for a gradient
perturbation delta; ||b|| approximates how far the reconstructed sample
moves.  Four interchangeable solvers are provided (dense, from the
eigendecomposition of J J^T; conjugate gradient; gradient descent and the
Neumann series, two starts of one Richardson iteration), all matrix-free
except the dense one, plus spectral utilities and the recovery-error bound
from the Lipschitz constants of the gradient and the Jacobian, a bound
under estimated constants (see theorem_bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .models import MixedJacobianOperator, dense_columns

SOLVER_MODES = ("gradient_descent", "conjugate_gradient", "neumann", "dense")


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "conjugate_gradient"
    epsilon: float = 0.0
    max_iters: int = 500
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.mode not in SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.epsilon < 0 or self.tolerance <= 0 or self.max_iters < 1:
            raise ValueError("need epsilon >= 0, tolerance > 0, max_iters >= 1")


@dataclass
class I2FReport:
    """One solve's result.  For a 2-D (d_theta, k) block of perturbations,
    k = 1 included, exact_value, lower_bound and residual are (k,) arrays,
    solution is (d_x, k), iterations is the most any column took and
    converged holds only if every column converged."""

    exact_value: float | np.ndarray = float("nan")
    lower_bound: float | np.ndarray = float("nan")
    solution: np.ndarray | None = None
    iterations: int = 0
    residual: float | np.ndarray = float("nan")
    lambda_max: float = float("nan")
    converged: bool = True


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray      # of J J^T, descending
    singular_values: np.ndarray  # sqrt of the above
    rank: int
    rank_threshold: float
    operator: MixedJacobianOperator | None = None  # the J it factors
    U: np.ndarray | None = None  # eigenvectors of J J^T, columns in eigenvalue order

    def right_vector(self, i):
        """Unit right singular vector J^T u_i / sigma_i, for 0 <= i < rank,
        signed so that its largest-magnitude entry (the first, on ties) is
        positive: the sign of a singular pair is otherwise LAPACK's choice."""
        if not 0 <= i < self.rank:
            raise IndexError(f"singular index {i} out of range for rank {self.rank}")
        _require_vectors(self, "right_vector")
        v = self.operator.vjp(self.U[:, i]) / self.singular_values[i]
        return -v if v[np.argmax(np.abs(v))] < 0 else v


def _require_vectors(spectrum, what):
    if spectrum.U is None:
        raise ValueError(f"{what} needs the eigenvectors of J J^T: this spectrum "
                         "holds eigenvalues only (dense_spectrum(..., vectors=False))")


RANK_THRESHOLD_REL = 1e-10  # eigenvalue below this fraction of the max counts as zero
LANCZOS_TOL = 1e-9  # Lanczos stops once its residual is at most this fraction of theta


def lambda_max_power_iteration(operator: MixedJacobianOperator, iters=200, seed=0):
    """Largest eigenvalue of J J^T: the top Ritz value of a fully
    reorthogonalized Lanczos iteration on v -> J (J^T v).

    Returns (lam, iterations, converged, trace); trace[k] is the top Ritz
    value of the (k+1)-dimensional Krylov space, which holds the k-th power
    iterate, so it is at least that iterate's Rayleigh quotient and never
    above lambda_max.  Converged means the residual ||A y - theta y|| =
    beta_k |s_k| is at most LANCZOS_TOL * theta, or the Krylov space ends.
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
        if b == 0.0 or k == operator.d_x or b * abs(S[-1, -1]) <= LANCZOS_TOL * lam:
            return lam, k, True, trace
        beta.append(b)
        Q = np.vstack([Q, w / b])
    return lam, iters, False, trace


def _row_dots(a, b):
    """a_i . b_i for every row i: numpy computes each as one BLAS dot, the
    same call as for a lone vector, so no row depends on the others."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a):
    return np.sqrt(_row_dots(a, a))


def i2f_exact(operator: MixedJacobianOperator, delta, cfg: SolverConfig,
              spectrum=None, lambda_max=None) -> I2FReport:
    """||(J J^T + eps I)^{-1} J delta|| with the configured solver.

    delta is a (d_theta,) vector or a (d_theta, k) block; any other shape
    raises ShapeError.  A 2-D delta, k = 1 included, always gives the
    block's array fields (see I2FReport), and each column equals its lone
    solve.  dense applies U diag(1 / (lambda + eps)) U^T from `spectrum`,
    the operator's dense_spectrum (built if None); at eps = 0 it keeps only
    the rank leading eigenvalues, the pseudo-inverse, whose minimum-norm
    solution the iterative modes also reach on a rank-deficient J, as their
    iterates stay in range(J).  These run in _lockstep: conjugate_gradient,
    and one Richardson iteration s <- s - (A s - c) / (lambda_max + eps),
    the Neumann series of A^-1 c, started at 0 by gradient_descent and at
    c / (lambda_max + eps) by neumann, so gradient_descent returns neumann's
    iterate one step later.  Those two read `lambda_max` if given, else run
    their own seed-0 Lanczos; the other modes ignore it."""
    c = operator.jvp(delta)  # J delta, which checks delta's shape
    vector = c.ndim == 1
    C = np.atleast_2d(c.T)  # one row per right-hand side
    eps = cfg.epsilon
    matvec = lambda s: operator.jvp(operator.vjp(s.T)).T + eps * s  # rows S -> S (J J^T + eps I)
    target = cfg.tolerance * np.maximum(1.0, _row_norms(C))

    if cfg.mode == "dense":
        if spectrum is None:
            spectrum = dense_spectrum(operator)
        _require_vectors(spectrum, "the dense solver")
        n = spectrum.rank if eps == 0 else operator.d_x
        U, scale = spectrum.U[:, :n], 1.0 / (spectrum.eigenvalues[:n] + eps)
        B, iterations, converged = np.array([U @ (scale * (U.T @ row)) for row in C]), 1, True
    elif cfg.mode == "conjugate_gradient":
        def cg_step(b, r, p):
            ap, rs = matvec(p), _row_dots(r, r)
            alpha = (rs / _row_dots(p, ap))[:, None]
            r_next = r - alpha * ap
            return b + alpha * p, r_next, r_next + (_row_dots(r_next, r_next) / rs)[:, None] * p
        B, iterations, converged = _lockstep(cg_step, (np.zeros_like(C), C.copy(), C.copy()),
                                             target, cfg.max_iters)
    else:
        lam = lambda_max_power_iteration(operator)[0] if lambda_max is None else lambda_max
        alpha = 1.0 / (lam + eps) if lam + eps > 0 else 0.0  # lam + eps = 0 only where J = 0 = C

        def richardson_step(s, r, c):  # c rides along unchanged
            s = s - alpha * r
            return s, matvec(s) - c, c
        S = np.zeros_like(C) if cfg.mode == "gradient_descent" else alpha * C
        R = -C if cfg.mode == "gradient_descent" else matvec(S) - C
        B, iterations, converged = _lockstep(richardson_step, (S, R, C), target, cfg.max_iters)

    residual, value = _row_norms(matvec(B) - C), _row_norms(B)
    if vector:
        B, residual, value = B[0], float(residual[0]), float(value[0])
    else:
        B = B.T
    return I2FReport(exact_value=value, solution=B, iterations=iterations, residual=residual,
                     converged=converged)


def _lockstep(step, state, target, max_iters):
    """Advance each row of state = (solution, residual, ...), a tuple of row
    arrays, by step(*live rows) -> next rows while its residual norm is above
    target_i, for at most max_iters steps.
    Returns (solution, the most steps any row took, whether all converged)."""
    live = np.flatnonzero(_row_norms(state[1]) > target)
    for it in range(max_iters):
        if live.size == 0:
            return state[0], it, True
        rows = step(*(a[live] for a in state))
        for a, row in zip(state, rows):
            a[live] = row
        live = live[_row_norms(rows[1]) > target[live]]
    return state[0], max_iters, live.size == 0


def _dense_from_operator(operator):
    """Dense J, its rows from VJPs of identity blocks."""
    return dense_columns(operator.vjp, operator.d_x, operator.d_theta, "dense Jacobian").T


def _normal_gram(operator):
    """The d_x x d_x Gram matrix J J^T without J: its columns lo:hi are the
    normal products J (J^T E) of an identity block E.  Symmetrized once,
    exactly and in place, so that the one triangle eigh reads carries both
    triangles' rounding."""
    G = dense_columns(lambda E: operator.jvp(operator.vjp(E)), operator.d_x, operator.d_x,
                      "Gram matrix J J^T")
    G += G.T
    G *= 0.5
    return G


def i2f_lower_bound(operator: MixedJacobianOperator, delta, seed=0, epsilon=0.0) -> I2FReport:
    """||J delta|| / (lambda_max(J J^T) + epsilon), the cheap floor under
    ||(J J^T + epsilon I)^{-1} J delta||.  The Lanczos Ritz value theta is at
    most lambda_max, so the floor errs high if theta falls short, converged
    or not: a small residual only places some eigenvalue near theta
    (the ROADMAP.md item "Certified columns" plans an upper bound).
    delta takes i2f_exact's shapes: a (d_theta, k) block gives a (k,)
    lower_bound, column j's equal to that of delta[:, j] alone."""
    c = operator.jvp(delta)  # J delta, which checks delta's shape
    lam, n_it, converged, _ = lambda_max_power_iteration(operator, seed=seed)
    rep = I2FReport()
    rep.lambda_max = lam
    rep.iterations = n_it
    rep.converged = converged
    norms = np.linalg.norm(c) if c.ndim == 1 else _row_norms(np.ascontiguousarray(c.T))
    # lam + epsilon = 0 only where J = 0, so J delta = 0 and so is the floor
    floor = norms / (lam + epsilon) if lam + epsilon > 0 else 0.0 * norms
    rep.lower_bound = float(floor) if c.ndim == 1 else floor
    return rep


def dense_spectrum(operator: MixedJacobianOperator, vectors=True) -> SpectrumReport:
    """The one factorization of J: eigendecomposition of the d_x x d_x
    Gram matrix J J^T, whose eigenvectors are J's left singular vectors.
    J itself is never formed: dense_columns' cap counts the Gram's d_x^2 entries.
    vectors=False runs eigvalsh on the same Gram and leaves U None, for
    callers that read eigenvalues only."""
    G = _normal_gram(operator)
    eig, U = np.linalg.eigh(G) if vectors else (np.linalg.eigvalsh(G), None)
    eig, U = np.clip(eig[::-1], 0.0, None), None if U is None else U[:, ::-1]
    thresh = RANK_THRESHOLD_REL * (eig[0] if eig.size else 0.0)
    rank = int(np.sum(eig > thresh))
    return SpectrumReport(eigenvalues=eig, singular_values=np.sqrt(eig), rank=rank,
                          rank_threshold=thresh, operator=operator, U=U)


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
    """Recovery-error floor ||J d|| / (mu_L ||J|| + 2 mu_J ||g0 + d||), a bound
    under estimated constants: estimate_lipschitz's sampled maxima can only
    underestimate the true mu_L and mu_J."""
    if mu_l < 0 or mu_j < 0 or (mu_l == 0 and mu_j == 0):
        raise ValueError("need mu_l > 0 or mu_j > 0, both non-negative")
    g0 = np.asarray(g0, dtype=np.float64).reshape(-1)
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    denom = mu_l * j_norm + 2.0 * mu_j * np.linalg.norm(g0 + delta)
    if denom == 0.0:
        raise ValueError("zero denominator in the recovery-error bound")
    return float(jdelta_norm / denom)


@dataclass(frozen=True)
class LipschitzEstimate:
    mu_l: float
    mu_j: float
    n_pairs: int
    radius: float


def estimate_lipschitz(spec, params, samples, n_pairs=10, radius=1e-2, seed=0) -> LipschitzEstimate:
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
        lam, _, _, _ = lambda_max_power_iteration(diff, iters=50, seed=int(rng.integers(2 ** 63)))
        mu_j = max(mu_j, float(np.sqrt(max(lam, 0.0)) / dist))
    return LipschitzEstimate(mu_l=mu_l, mu_j=mu_j, n_pairs=n_pairs, radius=radius)
