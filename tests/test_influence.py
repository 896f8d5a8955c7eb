"""Metric layer: frozen 2x2 values, solver agreement, spectral identities,
the Gaussian-expectation identity, and the certified bound."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradleak import (
    Activation,
    Conv2d,
    Flatten,
    InitScheme,
    Linear,
    MixedJacobianOperator,
    ModelSpec,
    SolverConfig,
    dense_spectrum,
    estimate_lipschitz,
    expected_gaussian_risk,
    i2f_exact,
    i2f_lower_bound,
    initialize_parameters,
    lambda_max_power_iteration,
    lenet_variant,
    linear_dot_model,
    mlp_model,
    one_layer_model,
    singular_direction_perturbation,
    theorem_bound,
)
from gradleak.autodiff import conv_geometry
from gradleak.data import synthetic_samples
from gradleak.models import BudgetError, ShapeError
from gradleak.influence import (
    SOLVER_MODES,
    SingularSpectrumError,
    _dense_from_operator,
    _normal_gram,
)

LAM_HI = (21 + math.sqrt(185)) / 2  # eigenvalues of JJ^T for J=[[4,0],[1,2]]
LAM_LO = (21 - math.sqrt(185)) / 2


def frozen_operator():
    spec = one_layer_model(2, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([2.0, 1.0])
    return MixedJacobianOperator(spec, params, np.array([1.0, 0.0]), None)


def linear_operator(d=6, seed=0):
    spec = linear_dot_model(d)
    params = initialize_parameters(spec, InitScheme("normal", seed))
    x = np.random.Generator(np.random.PCG64(seed)).uniform(0, 1, d)
    return MixedJacobianOperator(spec, params, x, None)


def mlp_operator(d=6, seed=0):
    spec = mlp_model(d, 8, 3)
    params = initialize_parameters(spec, InitScheme("xavier", seed))
    x = np.random.Generator(np.random.PCG64(seed + 1)).uniform(0, 1, d)
    return MixedJacobianOperator(spec, params, x, 1)


@pytest.mark.parametrize("mode", ["dense", "conjugate_gradient", "gradient_descent", "neumann"])
def test_frozen_i2f_value(mode):
    # (JJ^T)^{-1} J [1,0] with J=[[4,0],[1,2]] is [0.25, 0]
    op = frozen_operator()
    rep = i2f_exact(op, [1.0, 0.0], SolverConfig(mode=mode, epsilon=0.0, max_iters=2000))
    assert abs(rep.exact_value - 0.25) < 1e-6
    np.testing.assert_allclose(rep.solution, [0.25, 0.0], atol=1e-6)


def test_frozen_lower_bound():
    op = frozen_operator()
    rep = i2f_lower_bound(op, [1.0, 0.0])
    # ||J delta|| = sqrt(17), lambda_max = (21+sqrt(185))/2
    assert abs(rep.lower_bound - math.sqrt(17) / LAM_HI) < 1e-9
    assert abs(rep.lower_bound - 0.23832) < 1e-5
    assert rep.lower_bound <= 0.25


def test_frozen_spectrum():
    rep = dense_spectrum(frozen_operator())
    np.testing.assert_allclose(rep.eigenvalues, [LAM_HI, LAM_LO], rtol=1e-12)
    assert abs(rep.eigenvalues.sum() - 21.0) < 1e-10  # trace
    assert abs(np.prod(rep.eigenvalues) - 64.0) < 1e-8  # determinant
    assert rep.rank == 2
    np.testing.assert_allclose(rep.singular_values, np.sqrt(rep.eigenvalues))


def test_frozen_expected_risk():
    rep = dense_spectrum(frozen_operator())
    val = expected_gaussian_risk(rep, 1.0)
    assert abs(val - (1 / LAM_HI + 1 / LAM_LO)) < 1e-12
    assert abs(val - 0.328125) < 1e-6  # = 21/64 by trace/det


def test_power_iteration_identity_and_frozen():
    lam, its, conv, _ = lambda_max_power_iteration(linear_operator(4))
    assert abs(lam - 1.0) < 1e-12 and conv
    lam, its, conv, _ = lambda_max_power_iteration(frozen_operator())
    assert abs(lam - LAM_HI) < 1e-8 * LAM_HI and conv and its <= 200


def test_linear_model_i2f_is_delta_norm():
    op = linear_operator(5)
    delta = np.array([0.3, -0.4, 0.0, 0.0, 0.0])
    rep = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=0.0))
    assert abs(rep.exact_value - 0.5) < 1e-12
    np.testing.assert_allclose(rep.solution, delta, atol=1e-12)
    lb = i2f_lower_bound(op, delta)
    assert abs(lb.lower_bound - 0.5) < 1e-9


def test_solver_agreement_on_mlp():
    op = mlp_operator()
    rng = np.random.Generator(np.random.PCG64(5))
    delta = rng.normal(size=op.d_theta)
    ref = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=1.0)).exact_value
    for mode in ("conjugate_gradient", "gradient_descent", "neumann"):
        rep = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=1.0, max_iters=3000))
        assert rep.converged
        assert abs(rep.exact_value - ref) <= 1e-4 * ref


def test_damping_monotonicity():
    op = mlp_operator()
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(5):
        delta = rng.normal(size=op.d_theta)
        vals = [i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=e)).exact_value
                for e in (0.0, 0.1, 1.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_lower_bound_ordering_property():
    for op in (linear_operator(5), frozen_operator(), mlp_operator()):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            delta = rng.normal(size=op.d_theta)
            exact = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=0.0)).exact_value
            lb = i2f_lower_bound(op, delta).lower_bound
            assert lb <= exact + 1e-8


def one_layer_operator(seed):
    spec = one_layer_model(5, "sigmoid", 0.3)
    params = initialize_parameters(spec, InitScheme("uniform", seed))
    x = np.random.Generator(np.random.PCG64(seed)).uniform(0, 1, 5)
    return MixedJacobianOperator(spec, params, x, None)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([linear_operator, one_layer_operator, mlp_operator]),
       st.integers(0, 10 ** 6), st.sampled_from([0.0, 0.1, 1.0, 10.0]))
def test_damped_lower_bound_ordering_property(make_op, seed, eps):
    # ||J delta|| / (lambda_max + eps) <= ||(J J^T + eps I)^{-1} J delta|| for every solver
    op = make_op(seed=seed % 50)
    delta = np.random.Generator(np.random.PCG64(seed)).normal(size=op.d_theta)
    lb = i2f_lower_bound(op, delta, seed=seed, epsilon=eps)
    if not lb.converged:
        return
    for mode in ("dense", "conjugate_gradient", "gradient_descent", "neumann"):
        rep = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=eps, max_iters=5000))
        assert lb.lower_bound <= rep.exact_value * (1 + 1e-8) + 1e-12, mode


def test_svd_identity_and_singular_direction_response():
    op = mlp_operator()
    J = _dense_from_operator(op)
    u, s, vt = np.linalg.svd(J, full_matrices=False)
    rng = np.random.Generator(np.random.PCG64(2))
    delta = rng.normal(size=op.d_theta)
    exact = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=0.0)).exact_value
    via_svd = np.linalg.norm(u @ np.diag(1.0 / s) @ vt @ delta)
    assert abs(exact - via_svd) <= 1e-6 * via_svd
    for i in range(s.size):
        resp = i2f_exact(op, vt[i], SolverConfig(mode="dense", epsilon=0.0)).exact_value
        assert abs(resp - 1.0 / s[i]) <= 1e-6 / s[i]
    # alignment case: top direction saturates the lower bound at 1/sigma_max
    lb = i2f_lower_bound(op, vt[0]).lower_bound
    assert abs(lb - 1.0 / s[0]) <= 1e-6 / s[0]


def test_expected_risk_rejects_singular_spectrum():
    # well-fit one-layer: rank-1 Jacobian
    spec = one_layer_model(3, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([0.5, 0.25, 1.0])
    op = MixedJacobianOperator(spec, params, np.array([1.0, 2.0, -1.0]), None)
    rep = dense_spectrum(op)
    with pytest.raises(SingularSpectrumError):
        expected_gaussian_risk(rep, 1.0)
    assert expected_gaussian_risk(rep, 1.0, epsilon=0.5) > 0.0


def test_gaussian_expectation_monte_carlo():
    op = mlp_operator()
    closed = expected_gaussian_risk(dense_spectrum(op), 1.0)
    J = _dense_from_operator(op)
    pinv = np.linalg.pinv(J @ J.T) @ J  # epsilon=0 solve, precomputed
    rng = np.random.Generator(np.random.PCG64(23))
    vals = np.array([np.linalg.norm(pinv @ rng.normal(size=op.d_theta)) ** 2
                     for _ in range(2000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - closed) <= 3 * se


def test_theorem_bound_values_and_guards():
    g0 = np.zeros(3)
    d = np.array([3.0, 0.0, 0.0])
    # linear model constants: mu_L=1, mu_J=0, ||J||=1: bound == ||delta||
    assert theorem_bound(1.0, 1.0, 0.0, g0, d, np.linalg.norm(d)) == pytest.approx(3.0)
    # mu_J large: bound tends to zero
    assert theorem_bound(1.0, 1.0, 1e12, g0, d, 3.0) < 1e-11
    with pytest.raises(ValueError):
        theorem_bound(1.0, 0.0, 0.0, g0, d, 3.0)
    with pytest.raises(ValueError):
        theorem_bound(1.0, -1.0, 0.5, g0, d, 3.0)


def test_lipschitz_linear_model_exact():
    spec = linear_dot_model(6)
    params = initialize_parameters(spec, InitScheme("normal", 0))
    data = synthetic_samples("separable_2class", 3, (6,), seed=4)

    # flatten samples to the model input shape
    class Flat:
        def __init__(self, s):
            self.image = np.asarray(s.image).reshape(-1)
            self.label = None

    est = estimate_lipschitz(spec, params, [Flat(s) for s in data], n_pairs=5)
    assert abs(est.mu_l - 1.0) < 1e-9  # grad_theta == x exactly
    assert est.mu_j < 1e-6  # J == I everywhere


def test_lipschitz_running_max_monotone():
    spec = mlp_model(5, 6, 3)
    params = initialize_parameters(spec, InitScheme("xavier", 1))
    data = synthetic_samples("separable_2class", 4, (5,), seed=2)
    prev_l = prev_j = 0.0
    for n in (1, 3, 6):
        est = estimate_lipschitz(spec, params, list(data), n_pairs=n, seed=9)
        assert est.mu_l >= prev_l - 1e-15 and est.mu_j >= prev_j - 1e-15
        prev_l, prev_j = est.mu_l, est.mu_j
    assert prev_l > 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="lu")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


# dense_spectrum factors the Gram matrix J J^T, whose rounding error is about
# eps * sigma_0^2.  Divided back by sigma_i (or sigma_i sigma_j) and by the
# eigen-gap, that scales each check below by kappa_i = sigma_0 / sigma_i;
# SPECTRAL_TOL is the constant in front, about 4500 float64 ulps.
SPECTRAL_TOL = 1e-12


@st.composite
def small_stacks(draw):
    """A dense-spectrum operator for a small Linear, MLP or Conv2d stack."""
    acts = ["sigmoid", "tanh", "relu", "identity"]
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    n_out = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["linear", "mlp", "conv"]))
    if kind == "conv":
        size, channels = draw(st.integers(3, 6)), draw(st.integers(1, 2))
        kernel, stride = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        padding = draw(st.integers(0, 1))
        out_channels = draw(st.integers(1, 3))
        _, _, (oh, ow) = conv_geometry((channels, size, size), kernel, stride, padding)
        layers = [Conv2d(channels, out_channels, kernel, stride, padding),
                  Activation(draw(st.sampled_from(acts))), Flatten(),
                  Linear(out_channels * oh * ow, n_out)]
        input_shape = (channels, size, size)
    else:
        d = draw(st.integers(2, 8))
        layers = [Linear(d, n_out)]
        if kind == "mlp":
            hidden = draw(st.integers(2, 8))
            layers = [Linear(d, hidden), Activation(draw(st.sampled_from(acts))),
                      Linear(hidden, n_out)]
        input_shape = (d,)
    spec = ModelSpec(layers, "cross_entropy", input_shape, num_classes=n_out)
    params = initialize_parameters(spec, InitScheme("xavier", 0))
    params = params.with_theta(rng.normal(0.0, 0.7, size=spec.d_theta))
    x = rng.uniform(-1.0, 1.0, size=input_shape)
    return MixedJacobianOperator(spec, params, x, int(rng.integers(n_out)))


@settings(max_examples=150, deadline=None)
@given(small_stacks())
def test_right_vector_matches_svd_property(op):
    rep = dense_spectrum(op)
    J, r = _dense_from_operator(op), rep.rank
    _, s, vt = np.linalg.svd(J, full_matrices=False)  # the independent oracle
    for bad in (r, -1):
        with pytest.raises(IndexError):
            rep.right_vector(bad)
    if r == 0:
        return
    sigma = rep.singular_values[:r]
    kappa = s[0] / sigma
    np.testing.assert_array_less(np.abs(sigma - s[:r]), SPECTRAL_TOL * kappa * s[0])
    V = np.stack([rep.right_vector(i) for i in range(r)])
    # ||J v_i|| = sigma_i
    np.testing.assert_array_less(np.abs(np.linalg.norm(J @ V.T, axis=0) - sigma),
                                 SPECTRAL_TOL * kappa * s[0])
    # orthonormal
    np.testing.assert_array_less(np.abs(V @ V.T - np.eye(r)),
                                 SPECTRAL_TOL * np.outer(kappa, kappa))
    # v_i = +-vt[i] wherever lambda_i is separated from the rest of the spectrum
    lam = s ** 2
    for i in range(r):
        gap = np.min(np.abs(np.delete(lam, i) - lam[i]), initial=lam[0])
        if gap < 1e-6 * lam[0]:
            continue
        err = min(np.abs(V[i] - vt[i]).max(), np.abs(V[i] + vt[i]).max())
        assert err <= SPECTRAL_TOL * kappa[i] * lam[0] / gap, (i, err, gap)


@settings(max_examples=50, deadline=None)
@given(small_stacks())
def test_right_vector_sign_convention_property(op):
    # the sign of each singular pair is LAPACK's choice; right_vector fixes it
    rep = dense_spectrum(op)
    flipped = dataclasses.replace(rep, U=-rep.U)
    for i in range(rep.rank):
        v = rep.right_vector(i)
        assert v[np.argmax(np.abs(v))] > 0
        np.testing.assert_array_equal(flipped.right_vector(i), v)


@settings(max_examples=100, deadline=None)
@given(small_stacks())
def test_gram_matches_dense_j_property(op):
    # the Gram built from normal products J (J^T E) is J J^T of the dense J
    G = _normal_gram(op)
    J = _dense_from_operator(op)
    s0 = np.linalg.norm(J, 2)
    assert np.array_equal(G, G.T)
    assert np.abs(G - J @ J.T).max() <= SPECTRAL_TOL * s0 ** 2


@settings(max_examples=100, deadline=None)
@given(small_stacks())
def test_values_only_spectrum_matches_eigh_property(op):
    # eigvalsh on the same Gram: eigh's eigenvalues to its own rounding
    # error, the same rank, and no eigenvectors
    rep, values = dense_spectrum(op), dense_spectrum(op, vectors=False)
    assert values.U is None
    assert values.rank == rep.rank
    lam0 = rep.eigenvalues[0]
    assert np.abs(values.eigenvalues - rep.eigenvalues).max() <= SPECTRAL_TOL * lam0
    np.testing.assert_array_equal(values.singular_values, np.sqrt(values.eigenvalues))
    assert np.all(np.diff(values.eigenvalues) <= 0) and np.all(values.eigenvalues >= 0)


def test_right_vector_needs_eigenvectors():
    rep = dense_spectrum(mlp_operator(), vectors=False)
    assert rep.rank > 0
    with pytest.raises(ValueError, match="right_vector needs the eigenvectors"):
        rep.right_vector(0)


def test_dense_solver_needs_eigenvectors():
    op = mlp_operator()
    values = dense_spectrum(op, vectors=False)
    delta = np.ones(op.d_theta)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="the dense solver needs the eigenvectors"):
            i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=eps), spectrum=values)


def test_dense_spectrum_never_holds_j():
    # LeNet's J is 784 x 11,580 floats (72 MB); the spectrum needs only the
    # 784 x 784 Gram, its eigenvectors and one block of normal products
    spec = lenet_variant()
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    x = np.random.Generator(np.random.PCG64(0)).uniform(0, 1, spec.input_shape)
    op = MixedJacobianOperator(spec, params, x, 3)
    tracemalloc.start()
    try:
        rep = dense_spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rank > 0
    assert peak < op.d_x * op.d_theta * 8 / 4


def test_budget_counts_the_gram_entries(monkeypatch):
    # the Gram paths hold d_x^2 entries, not the d_x d_theta of J
    op = mlp_operator()
    budget = op.d_x ** 2
    assert budget < op.d_x * op.d_theta
    monkeypatch.setattr("gradleak.models.DENSE_BUDGET", budget)
    rep = dense_spectrum(op)
    assert rep.rank == op.d_x
    dense = SolverConfig(mode="dense", epsilon=0.5)
    assert i2f_exact(op, np.ones(op.d_theta), dense).exact_value > 0
    assert dense_spectrum(op, vectors=False).rank == op.d_x
    assert singular_direction_perturbation(op, 0)[1] > 0
    monkeypatch.setattr("gradleak.models.DENSE_BUDGET", budget - 1)
    for call in (lambda: dense_spectrum(op),
                 lambda: i2f_exact(op, np.ones(op.d_theta), dense),
                 lambda: dense_spectrum(op, vectors=False),
                 lambda: singular_direction_perturbation(op, 0)):
        with pytest.raises(BudgetError, match=f"Gram matrix J J\\^T needs {budget} entries"):
            call()


def power_iteration_trace(op, iters, seed):
    """Plain power iteration's Rayleigh quotients from the same start vector."""
    v, trace = np.random.Generator(np.random.PCG64(seed)).normal(size=op.d_x), []
    while len(trace) < iters and np.linalg.norm(v) > 0:
        v = v / np.linalg.norm(v)
        av = op.jvp(op.vjp(v))
        trace.append(float(v @ av))
        v = av
    return trace


@settings(max_examples=100, deadline=None)
@given(small_stacks(), st.integers(0, 2 ** 32 - 1))
def test_lanczos_lambda_max_property(op, seed):
    lam, its, conv, trace = lambda_max_power_iteration(op, seed=seed)
    assert len(trace) == its and lam == trace[-1]
    # the k-dimensional Krylov space holds the k-th power iterate
    for k, (ritz, rq) in enumerate(zip(trace, power_iteration_trace(op, its, seed))):
        assert ritz >= rq - 1e-12 * abs(rq), k
    lam_dense = dense_spectrum(op).eigenvalues[0]
    assert lam <= lam_dense * (1 + 1e-12)
    if conv:
        assert abs(lam - lam_dense) <= 1e-8 * lam_dense


def test_lanczos_step_counts():
    # the frozen J J^T is 2 x 2: the Krylov space is exhausted by step 2
    lam, its, conv, trace = lambda_max_power_iteration(frozen_operator())
    assert conv and its <= 2 and abs(lam - LAM_HI) <= 1e-12 * LAM_HI
    # J J^T = I has one eigenvalue: the first Ritz value is exact
    assert lambda_max_power_iteration(linear_operator(4))[1:3] == (1, True)
    # rank 1: span{v, J J^T v} holds the top eigenvector, so step 2 is exact
    spec = one_layer_model(3, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([0.5, 0.25, 1.0])
    op = MixedJacobianOperator(spec, params, np.array([1.0, 2.0, -1.0]), None)
    lam, its, conv, trace = lambda_max_power_iteration(op, iters=1)
    assert (its, conv) == (1, False) and lam < 7.875
    lam, its, conv, trace = lambda_max_power_iteration(op)
    assert (its, conv) == (2, True) and abs(lam - 7.875) <= 1e-12 * 7.875  # |x|^2 |theta|^2
    # a zero operator
    zero = SimpleNamespace(d_x=3, jvp=lambda d: np.zeros(3), vjp=lambda b: np.zeros(5))
    assert lambda_max_power_iteration(zero) == (0.0, 1, True, [0.0])


@settings(max_examples=100, deadline=None)
@given(small_stacks(), st.sampled_from(SOLVER_MODES), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_block_i2f_matches_columns_property(op, mode, k, seed):
    # the columns of a block are solved in lockstep, each stopping where
    # it would stop alone; one column is zero (J delta = 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    D = rng.normal(size=(op.d_theta, k))
    zero = int(rng.integers(k))
    D[:, zero] = 0.0
    cfg = SolverConfig(mode=mode, epsilon=0.5, max_iters=3000)
    with np.errstate(divide="raise", invalid="raise"):
        rep = i2f_exact(op, D, cfg)
    singles = [i2f_exact(op, D[:, j], cfg) for j in range(k)]
    assert rep.exact_value.shape == rep.residual.shape == (k,)
    assert rep.solution.shape == (op.d_x, k)
    for j, one in enumerate(singles):
        assert abs(rep.exact_value[j] - one.exact_value) <= 1e-12 * one.exact_value
    assert rep.iterations == max(one.iterations for one in singles)
    assert type(rep.converged) is bool
    assert rep.converged == all(one.converged for one in singles)
    assert rep.exact_value[zero] == 0.0 and singles[zero].converged


def test_block_shapes_of_both_entry_points():
    # i2f_exact and i2f_lower_bound accept the same shapes: a 1-D vector
    # gives floats, a 2-D block (k = 1 too) gives (k,) arrays whose columns
    # equal the lone results, and any other shape raises ShapeError
    op = mlp_operator()
    D = np.random.Generator(np.random.PCG64(3)).normal(size=(op.d_theta, 3))
    cfg = SolverConfig(mode="conjugate_gradient", epsilon=0.5)
    lone_exact = [i2f_exact(op, D[:, j], cfg).exact_value for j in range(3)]
    lone_lb = [i2f_lower_bound(op, D[:, j]).lower_bound for j in range(3)]
    assert all(type(v) is float for v in lone_exact + lone_lb)
    assert list(i2f_exact(op, D, cfg).exact_value) == lone_exact
    assert list(i2f_lower_bound(op, D).lower_bound) == lone_lb
    one = D[:, :1]
    assert i2f_exact(op, one, cfg).exact_value.shape == (1,)
    assert i2f_lower_bound(op, one).lower_bound.shape == (1,)
    for bad in (D[:, 0].reshape(1, -1), D[None], D[:-1]):
        with pytest.raises(ShapeError, match=str(op.d_theta)):
            i2f_exact(op, bad, cfg)
        with pytest.raises(ShapeError, match=str(op.d_theta)):
            i2f_lower_bound(op, bad)


@settings(max_examples=100, deadline=None)
@given(small_stacks(), st.sampled_from(SOLVER_MODES), st.integers(1, 5),
       st.sampled_from([0.1, 0.5, 2.0]), st.integers(0, 2 ** 32 - 1))
def test_block_i2f_columns_equal_lone_solves_property(op, mode, k, eps, seed):
    # bit for bit: a block column is computed exactly as its lone solve,
    # the dense mode's multi-column factorization included
    D = np.random.Generator(np.random.PCG64(seed)).normal(size=(op.d_theta, k))
    cfg = SolverConfig(mode=mode, epsilon=eps, max_iters=3000)
    block = i2f_exact(op, D, cfg)
    for j in range(k):
        lone = i2f_exact(op, D[:, j], cfg)
        assert block.exact_value[j] == lone.exact_value
        assert np.array_equal(block.solution[:, j], lone.solution)


def rank_one_operator():
    """A well-fit one-layer unit: J = x theta^T has rank 1."""
    spec = one_layer_model(3, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([0.5, 0.25, 1.0])
    return MixedJacobianOperator(spec, params, np.array([1.0, 2.0, -1.0]), None)


def test_rank_deficient_modes_agree_on_the_minimum_norm_solution():
    # at eps = 0 the dense mode is the pseudo-inverse; the iterative modes
    # reach the same minimum-norm solution because their iterates stay in range(J)
    op = rank_one_operator()
    delta = np.array([1.0, -0.3, 0.2])
    J = _dense_from_operator(op)
    want = np.linalg.pinv(J @ J.T, rcond=1e-10, hermitian=True) @ (J @ delta)
    for mode in SOLVER_MODES:
        rep = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=0.0, max_iters=2000))
        assert rep.converged, mode
        assert abs(rep.exact_value - np.linalg.norm(want)) <= 1e-12 * np.linalg.norm(want), mode
        np.testing.assert_allclose(rep.solution, want, rtol=0, atol=1e-12 * np.linalg.norm(want))


def test_zero_jacobian_gives_zero_floor_and_solves():
    # J = 0 where x = 0 under a zero-target identity unit: lambda_max + eps = 0
    spec = one_layer_model(3, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    op = MixedJacobianOperator(spec, params, np.zeros(3), None)
    D = np.random.Generator(np.random.PCG64(4)).normal(size=(op.d_theta, 2))
    with np.errstate(all="raise"):
        for delta in (D[:, 0], D):
            lb = i2f_lower_bound(op, delta)
            assert lb.lambda_max == 0.0 and np.all(lb.lower_bound == 0.0)
            for mode in SOLVER_MODES:
                rep = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=0.0))
                assert np.all(rep.exact_value == 0.0) and rep.converged, mode
                assert rep.iterations == (1 if mode == "dense" else 0), mode


@settings(max_examples=60, deadline=None)
@given(small_stacks(), st.sampled_from([0.1, 1.0, 10.0]), st.integers(2, 300),
       st.integers(0, 2 ** 32 - 1))
def test_gradient_descent_is_neumann_one_step_later_property(op, eps, max_iters, seed):
    # one Richardson iteration from two starts: gradient descent's first step
    # from 0 lands on neumann's start, so converged or not it returns neumann's
    # iterate, bit for bit, after one more step
    delta = np.random.Generator(np.random.PCG64(seed)).normal(size=op.d_theta)
    gd = i2f_exact(op, delta, SolverConfig(mode="gradient_descent", epsilon=eps,
                                           max_iters=max_iters))
    neumann = i2f_exact(op, delta, SolverConfig(mode="neumann", epsilon=eps,
                                                max_iters=max_iters - 1))
    assume(gd.iterations > 0)  # ||J delta|| within tolerance: both stop at their starts
    assert neumann.exact_value == gd.exact_value
    assert np.array_equal(neumann.solution, gd.solution)
    assert (neumann.iterations, neumann.converged) == (gd.iterations - 1, gd.converged)


@pytest.mark.parametrize("mode", ["gradient_descent", "neumann"])
def test_richardson_spends_one_normal_product_per_step(mode):
    op = mlp_operator()
    vjps = []
    counted = SimpleNamespace(d_x=op.d_x, jvp=op.jvp,
                              vjp=lambda b: vjps.append(b) or op.vjp(b))
    delta = np.random.Generator(np.random.PCG64(6)).normal(size=op.d_theta)
    cfg = SolverConfig(mode=mode, epsilon=0.5, max_iters=3000)
    lam, lanczos_steps, _, _ = lambda_max_power_iteration(op)
    rep = i2f_exact(counted, delta, cfg)
    assert rep.converged and rep.iterations > 1
    # Lanczos, neumann's starting residual, one per step, then the final residual
    assert len(vjps) == lanczos_steps + (mode == "neumann") + rep.iterations + 1
    # a handed lambda_max spends no Lanczos product, and the seed-0 one is
    # exactly the step the default solve took
    vjps.clear()
    handed = i2f_exact(counted, delta, cfg, lambda_max=lam)
    assert len(vjps) == (mode == "neumann") + rep.iterations + 1
    assert handed.exact_value == rep.exact_value
    assert np.array_equal(handed.solution, rep.solution)
    assert (handed.iterations, handed.converged) == (rep.iterations, rep.converged)
