"""Reference gradient-inversion attacks and gradient perturbation defenses.

Both attacks search over the input with Adam, driving the model gradient
toward an observed target gradient: by squared L2 distance (the classic
leakage attack) or by cosine similarity (the similarity variant, with
per-step box projection onto [0, 1]).  The gradient of the matching
objective w.r.t. the input is an exact second derivative: one J @ v
product of the graph-free mixed-Jacobian kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .influence import dense_spectrum
from .models import MixedJacobianOperator


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "dgl"  # dgl | gs
    iterations: int = 3000
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dummy_init: str = "uniform01"  # uniform01 | gaussian
    box_projection: bool | None = None  # default: off for dgl, on for gs
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("dgl", "gs"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.dummy_init not in ("uniform01", "gaussian"):
            raise ValueError(f"unknown dummy init {self.dummy_init!r}")
        if self.iterations < 1 or self.learning_rate <= 0:
            raise ValueError("need iterations >= 1 and learning_rate > 0")

    @property
    def project(self):
        return self.kind == "gs" if self.box_projection is None else self.box_projection


@dataclass
class AttackResult:
    x_star: np.ndarray
    loss_trace: np.ndarray
    l2: float
    rmse: float
    final_loss: float


class Adam:
    """Standard bias-corrected Adam, elementwise on one array."""

    def __init__(self, lr, beta1, beta2, eps):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, x, g):
        if self.m is None:
            self.m = np.zeros_like(x)
            self.v = np.zeros_like(x)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def recovery_error(x0, x_star):
    x0 = np.asarray(x0, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if x0.shape != x_star.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {x_star.shape}")
    l2 = float(np.linalg.norm((x0 - x_star).reshape(-1)))
    return l2, l2 / np.sqrt(x0.size)


def _dummy_init(spec, cfg):
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    shape = tuple(spec.input_shape)
    if cfg.dummy_init == "uniform01":
        return rng.uniform(0.0, 1.0, size=shape)
    return rng.normal(0.0, 1.0, size=shape)  # gaussian


def _objective_grad(spec, params, x, y, g_target, kind):
    """Matching objective and its input gradient at the current dummy x.

    Both objectives depend on x only through g = g_theta(x), so their
    input gradient is one mixed-Jacobian product, J @ d(obj)/dg.
    """
    op = MixedJacobianOperator(spec, params, x, y)
    g = op.g_theta
    if kind == "dgl":
        r = g - g_target
        obj, dobj = float(np.sum(r * r)), 2.0 * r
    else:
        tnorm = np.linalg.norm(g_target)
        if tnorm == 0.0:
            raise ValueError("cosine objective undefined for zero target gradient")
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            raise ZeroGradientError("synthesized gradient vanished; cosine undefined")
        cos = float(g @ g_target) / (gnorm * tnorm)
        obj, dobj = 1.0 - cos, cos / gnorm ** 2 * g - g_target / (gnorm * tnorm)
    return obj, op.jvp(dobj).reshape(np.shape(x))


class ZeroGradientError(RuntimeError):
    pass


def run_attack(spec, params, g_target, y, cfg: AttackConfig, x0=None) -> AttackResult:
    """Run the inversion attack that cfg.kind names ("dgl" or "gs") against
    a target gradient; the one entry point for both attacks.

    Returns the best-objective iterate.  If x0 is given, recovery metrics
    are filled in; otherwise they are NaN.
    """
    g_target = np.asarray(g_target, dtype=np.float64).reshape(-1)
    if g_target.size != spec.d_theta:
        raise ValueError(f"target gradient length {g_target.size} != d_theta {spec.d_theta}")
    x = _dummy_init(spec, cfg)
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    trace = np.empty(cfg.iterations)
    best_obj = np.inf
    best_x = x.copy()
    for it in range(cfg.iterations):
        obj, gx = _objective_grad(spec, params, x, y, g_target, cfg.kind)
        if not np.isfinite(obj):
            raise FloatingPointError(f"inversion objective became non-finite at iteration {it}")
        trace[it] = obj
        if obj < best_obj:
            best_obj = obj
            best_x = x.copy()
        x = opt.step(x, gx)
        if cfg.project:
            np.clip(x, 0.0, 1.0, out=x)
    if x0 is not None:
        l2, rmse = recovery_error(x0, best_x)
    else:
        l2 = rmse = float("nan")
    return AttackResult(x_star=best_x, loss_trace=trace, l2=l2, rmse=rmse,
                        final_loss=float(best_obj))


# ---------------------------------------------------------------------------
# perturbation defenses


def gaussian_perturbation(g, variance, seed=0):
    if variance < 0:
        raise ValueError("variance must be >= 0")
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    rng = np.random.Generator(np.random.PCG64(seed))
    delta = rng.normal(0.0, np.sqrt(variance), size=g.size) if variance > 0 else np.zeros(g.size)
    return g + delta, delta


def prune_gradient(g, ratio):
    """Zero the floor(ratio * d) smallest-magnitude coordinates.

    Ties break toward lower indices (stable argsort), survivors are
    bitwise unchanged.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    k = int(np.floor(ratio * g.size))
    pruned = g.copy()
    if k > 0:
        order = np.argsort(np.abs(g), kind="stable")
        pruned[order[:k]] = 0.0
    return pruned, pruned - g


def singular_direction_perturbation(operator: MixedJacobianOperator, which, scale=1.0,
                                    spectrum=None):
    """Perturbation along the right singular vector of J with the
    `which`-th largest singular value; lives in parameter space.  Raises
    IndexError unless 0 <= which < rank(J).  `spectrum`, the operator's
    dense_spectrum if given, saves factorizing J again; else its Gram is
    built, under dense_columns' cap on the Gram's d_x^2 entries."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    rep = spectrum if spectrum is not None else dense_spectrum(operator)
    return scale * rep.right_vector(which), float(rep.singular_values[which])
