"""Detector update rules, oracles, and cross-detector identities."""

import math

import numpy as np
import pytest

from hsmimo.detectors import (
    DetectorDivergenceError,
    HsParams,
    InstanceTooLargeError,
    ThsParams,
    TpgParams,
    brute_force_ml_detect,
    hard_decision,
    hs_detect,
    hypercube_vertices,
    lmmse_like_matrix,
    ml_objective,
    mmse_detect,
    scalable_tpg_detect,
    ths_detect,
    ths_step,
    tpg_detect,
)
from hsmimo.evaluation import bit_flip_ratio, gradient_amplitude
from hsmimo.system_model import RngStream, SystemDims, realify_channel, sample_channel, sample_signal


def random_system(seed, n=3, m=2, noise=0.0):
    dims = SystemDims(n, m)
    stream = RngStream(seed)
    H = realify_channel(sample_channel(dims, stream.child(0)))
    x = sample_signal(dims, stream.child(1))
    w = noise * stream.child(2).generator().standard_normal(dims.M)
    return H, x, H @ x + w


def random_batch(seed, n=4, m=3, B=6, noise=0.3):
    """One channel and B signal/observation columns X (N, B), Y (M, B)."""
    dims = SystemDims(n, m)
    stream = RngStream(seed)
    H = realify_channel(sample_channel(dims, stream.child(0)))
    X = 1.0 - 2.0 * stream.child(1).generator().integers(0, 2, size=(dims.N, B)).astype(float)
    return H, X, H @ X + noise * stream.child(2).generator().standard_normal((dims.M, B))


def batch_detectors(step=None):
    """Each batch-capable detector as detect(H, y), the iterative ones (depth
    12) as detect(H, y, trace=False); ``step`` overrides every step size
    (eta / gamma) of the iterative ones."""
    eta = 0.05 if step is None else step
    gamma = 0.3 if step is None else step
    return {
        "ths": lambda H, y, **kw: ths_detect(H, y, ThsParams.initial(12, eta=eta, zeta=1.05),
                                             **kw),
        "hs": lambda H, y, **kw: hs_detect(H, y, HsParams(T=12, eta=eta), **kw),
        "scalable_tpg": lambda H, y, **kw: scalable_tpg_detect(
            H, y, TpgParams.initial(12, gamma=eta), **kw),
        "tpg": lambda H, y, **kw: tpg_detect(
            H, y, 0.1, TpgParams.initial(12, gamma=gamma, variant="lmmse", alpha=1.0), **kw),
        "mmse": lambda H, y: mmse_detect(H, y, 0.2),
    }


ITERATIVE = ["ths", "hs", "scalable_tpg", "tpg"]


class TestBatchedColumns:
    @pytest.mark.parametrize("name", sorted(batch_detectors()))
    def test_column_equals_single_vector_call(self, name):
        detect = batch_detectors()[name]
        H, X, Y = random_batch(20)
        batch = detect(H, Y)
        assert batch.soft.shape == batch.hard.shape == X.shape
        np.testing.assert_array_equal(batch.diverged, np.zeros(Y.shape[1], dtype=bool))
        for j in range(Y.shape[1]):
            single = detect(H, Y[:, j])
            np.testing.assert_allclose(batch.soft[:, j], single.soft, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(batch.hard[:, j], single.hard)

    @pytest.mark.parametrize("name", ITERATIVE)
    def test_diverging_column_is_masked_alone(self, name):
        # a huge step overflows only on the column with a huge observation
        detect = batch_detectors(step=1e10)[name]
        H, X, Y = random_batch(21)
        Y[:, 2] = 1e300
        with pytest.raises(DetectorDivergenceError):
            detect(H, Y[:, 2])
        batch = detect(H, Y)
        np.testing.assert_array_equal(batch.diverged, np.arange(Y.shape[1]) == 2)
        assert np.all(np.isnan(batch.soft[:, 2])) and np.all(np.isnan(batch.hard[:, 2]))
        for j in (0, 1, 3, 4, 5):
            single = detect(H, Y[:, j])
            np.testing.assert_allclose(batch.soft[:, j], single.soft, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(batch.hard[:, j], single.hard)

    @pytest.mark.parametrize("name", ITERATIVE)
    def test_traced_batch_columns_equal_single_traced_calls(self, name):
        detect, T = batch_detectors()[name], 12
        H, X, Y = random_batch(22, n=25, m=16, B=8)
        N, B = X.shape
        tr = detect(H, Y, trace=True).trace
        assert tr.u.shape == tr.s.shape == (T + 1, N, B)
        assert tr.gradient_amplitude.shape == (T + 1, B)
        assert tr.bit_flip_ratio.shape == (T, B)
        assert_bitwise(tr.s[-1], detect(H, Y, trace=False).soft)
        for j in range(B):
            single = detect(H, Y[:, j], trace=True).trace
            np.testing.assert_allclose(tr.s[:, :, j], single.s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.gradient_amplitude[:, j], single.gradient_amplitude,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(tr.bit_flip_ratio[:, j], single.bit_flip_ratio)
        # a one-column batch is bitwise the single-vector run
        one, single = detect(H, Y[:, :1], trace=True).trace, detect(H, Y[:, 0], trace=True).trace
        for field in ("u", "s", "gradient_amplitude", "bit_flip_ratio"):
            assert_bitwise(getattr(one, field)[..., 0], getattr(single, field))

    @pytest.mark.parametrize("name", ITERATIVE)
    def test_traced_batch_raises_on_a_diverging_column(self, name):
        # a traced run's states are read afterwards, so it does not restart a column
        detect = batch_detectors(step=1e10)[name]
        H, X, Y = random_batch(21)
        Y[:, 2] = 1e300
        assert detect(H, Y, trace=False).diverged[2]
        with pytest.raises(DetectorDivergenceError):
            detect(H, Y, trace=True)


def reference_unroll(H, y, T, update, squash):
    """Residual-form loop with fresh temporaries per layer: p_{t+1} =
    update(t, p_t, s_t), s_{t+1} = squash(t, p_{t+1}).  Returns (soft, hard,
    diverged, states); a single vector that diverges returns its iteration
    as ``diverged`` instead."""
    p = np.zeros((H.shape[1],) + y.shape[1:])
    s = np.zeros_like(p)
    diverged = np.zeros(y.shape[1:], dtype=bool)
    states = [(p, s)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            p = update(t, p, s)
            if not np.isfinite(p).all():
                if y.ndim == 1:
                    return None, None, t, states
                bad = ~np.isfinite(p).all(axis=0)
                diverged |= bad
                p[:, bad] = 0.0
            s = squash(t, p)
            states.append((p, s))
    hard = np.where(s >= 0, 1.0, -1.0)
    if diverged.any():
        s[:, diverged] = hard[:, diverged] = np.nan
    return s, hard, diverged, states


def kernel_cases(gen, H, y, T, scale):
    """Each iterative detector on (H, y) with random per-layer scalars,
    steps multiplied by ``scale``, next to its residual-form reference."""
    ths = ThsParams(beta=gen.uniform(0.3, 3.0, T), eta=scale * gen.uniform(0.01, 0.3, T),
                    zeta=gen.uniform(0.8, 1.2, T))
    hs = HsParams(T=T, eta=scale * float(gen.uniform(0.01, 0.2)), lam=float(gen.uniform(0.5, 2.0)),
                  beta=float(gen.uniform(0.5, 2.0)))
    hs_zeta = 1.0 + hs.eta / hs.lam
    stpg = TpgParams(gamma=scale * gen.uniform(0.01, 0.5, T),
                     theta=gen.uniform(0.3, 2.0, T) * gen.choice([-1.0, 1.0], T))
    tpg = TpgParams(gamma=scale * gen.uniform(0.01, 1.0, T),
                    theta=gen.uniform(0.3, 2.0, T) * gen.choice([-1.0, 1.0], T),
                    variant="lmmse", alpha=float(gen.uniform(0.1, 2.0)))
    W = lmmse_like_matrix(H, tpg.alpha)

    def tpg_reference(A, p):
        return reference_unroll(H, y, T, lambda t, r, s: s + p.gamma[t] * (A @ (y - H @ s)),
                                lambda t, r: np.tanh(r / abs(p.theta[t])))

    return {
        "ths": (lambda trace: ths_detect(H, y, ths, trace=trace),
                reference_unroll(H, y, T,
                                 lambda t, u, s: ths.zeta[t] * u + ths.eta[t] * (H.T @ (y - H @ s)),
                                 lambda t, u: np.tanh(ths.beta[t] * u))),
        "hs": (lambda trace: hs_detect(H, y, hs, trace=trace),
               reference_unroll(H, y, T,
                                lambda t, u, s: hs_zeta * u + hs.eta * (H.T @ (y - H @ s)),
                                lambda t, u: np.tanh(hs.beta * u))),
        "scalable_tpg": (lambda trace: scalable_tpg_detect(H, y, stpg, trace=trace),
                         tpg_reference(H.T, stpg)),
        "tpg": (lambda trace: tpg_detect(H, y, 0.1, tpg, trace=trace), tpg_reference(W, tpg)),
    }


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestInPlaceKernel:
    """The in-place loop reproduces the residual-form recursion bit for bit."""

    @pytest.mark.parametrize("name", ITERATIVE)
    @pytest.mark.parametrize("n,m,B", [(4, 3, 6), (3, 5, 1), (1, 1, 3), (50, 32, 8)])
    def test_batch_and_single_calls(self, name, n, m, B):
        gen = np.random.default_rng(n * 100 + B)
        H, X, Y = random_batch(30 + n, n=n, m=m, B=B)
        T = int(gen.integers(1, 31))
        for y in (Y, Y[:, 0]):
            detect, (soft, hard, diverged, _) = kernel_cases(gen, H, y, T, 1.0)[name]
            result = detect(False)
            assert_bitwise(result.soft, soft)
            assert_bitwise(result.hard, hard)
            np.testing.assert_array_equal(result.diverged, np.zeros(y.shape[1:], dtype=bool))

    @pytest.mark.parametrize("name", ITERATIVE)
    def test_traced_states(self, name):
        gen = np.random.default_rng(31)
        H, X, Y = random_batch(31, n=5, m=4, B=1)
        detect, (soft, _, _, states) = kernel_cases(gen, H, Y[:, 0], 9, 1.0)[name]
        result = detect(True)
        assert_bitwise(result.soft, soft)
        assert_bitwise(result.trace.u, np.stack([p for p, _ in states]))
        assert_bitwise(result.trace.s, np.stack([s for _, s in states]))

    @pytest.mark.parametrize("name", ITERATIVE)
    def test_one_diverging_column(self, name):
        # steps of order 1e10 overflow only on the column with a huge observation
        gen = np.random.default_rng(32)
        H, X, Y = random_batch(32, n=4, m=3, B=5)
        Y[:, 2] = 1e300
        detect, (soft, hard, diverged, _) = kernel_cases(gen, H, Y, 7, 1e10)[name]
        np.testing.assert_array_equal(diverged, np.arange(5) == 2)
        result = detect(False)
        assert_bitwise(result.soft, soft)
        assert_bitwise(result.hard, hard)
        np.testing.assert_array_equal(result.diverged, diverged)
        detect, (_, _, iteration, _) = kernel_cases(gen, H, Y[:, 2], 7, 1e10)[name]
        with pytest.raises(DetectorDivergenceError) as err:
            detect(False)
        assert err.value.iteration == iteration


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", sorted(batch_detectors()))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_naming_the_argument(self, name, bad):
        detect = batch_detectors()[name]
        H, x, y = random_system(23, noise=0.1)
        y_bad = y.copy()
        y_bad[1] = bad
        with pytest.raises(ValueError, match="observation y has non-finite"):
            detect(H, y_bad)
        H_bad = H.copy()
        H_bad[0, 1] = bad
        with pytest.raises(ValueError, match="channel H has non-finite"):
            detect(H_bad, y)

    def test_rejected_in_a_batch(self):
        H, X, Y = random_batch(24)
        Y[3, 4] = np.nan
        for detect in batch_detectors().values():
            with pytest.raises(ValueError, match="observation y"):
                detect(H, Y)


class TestHardDecision:
    def test_definition(self):
        np.testing.assert_array_equal(hard_decision([0.3, -0.7]), [1.0, -1.0])

    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(hard_decision([0.0]), [1.0])

    def test_idempotent_on_symbols(self):
        x = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(hard_decision(x), x)


class TestThsStep:
    def test_zero_initialization(self):
        H, x, y = random_system(1)
        N = H.shape[1]
        u1, s1 = ths_step(np.zeros(N), np.zeros(N), H, y, beta_t=1.3, eta_t=0.05, zeta_t=1.1)
        np.testing.assert_allclose(u1, 0.05 * (H.T @ y), rtol=0, atol=1e-15)
        np.testing.assert_allclose(s1, np.tanh(1.3 * 0.05 * (H.T @ y)), rtol=0, atol=1e-15)

    def test_zero_residual_keeps_u_exactly(self):
        # y = Hs and zeta = 1: the dual state must not move at all
        gen = np.random.default_rng(2)
        for _ in range(200):
            H = gen.standard_normal((4, 6))
            s = gen.standard_normal(6)
            u = gen.standard_normal(6)
            u1, _ = ths_step(u, s, H, H @ s, beta_t=0.7, eta_t=0.3, zeta_t=1.0)
            np.testing.assert_array_equal(u1, u)

    def test_scalar_arithmetic_oracle(self):
        # H=[2], y=[1], s=[0.25], u=[0], zeta=1, eta=0.1, beta=1:
        # u' = 0.1 * 2 * (1 - 2*0.25) = 0.1, s' = tanh(0.1)
        u1, s1 = ths_step(np.array([0.0]), np.array([0.25]), np.array([[2.0]]),
                          np.array([1.0]), beta_t=1.0, eta_t=0.1, zeta_t=1.0)
        assert u1[0] == pytest.approx(0.1, abs=1e-15)
        assert s1[0] == pytest.approx(math.tanh(0.1), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ths_step(np.zeros(3), np.zeros(3), np.eye(4), np.zeros(4), 1.0, 0.1, 1.0)


class TestThsDetect:
    def test_depth_one_is_single_step(self):
        H, x, y = random_system(3)
        N = H.shape[1]
        params = ThsParams(beta=[1.2], eta=[0.07], zeta=[1.05])
        res = ths_detect(H, y, params)
        _, s1 = ths_step(np.zeros(N), np.zeros(N), H, y, 1.2, 0.07, 1.05)
        np.testing.assert_array_equal(res.soft, s1)

    def test_noiseless_fixed_point_freezes(self):
        # with s at the true signal and zeta = 1, u never moves and the
        # hard output stays at the transmitted vector; beta large enough
        # that tanh saturates keeps s there exactly
        H, x, y = random_system(4, noise=0.0)
        u = 2.0 * x  # any state whose signs match x
        s = x.copy()
        for _ in range(10):
            u_next, s = ths_step(u, s, H, y, beta_t=10.0, eta_t=0.1, zeta_t=1.0)
            np.testing.assert_array_equal(u_next, u)
            np.testing.assert_array_equal(s, x)
            u = u_next
        np.testing.assert_array_equal(hard_decision(s), x)

    def test_matches_ml_on_small_noiseless_systems(self):
        # well-conditioned square (4,4) instances, sigma = 0
        dims = SystemDims(4, 4)
        params = ThsParams.initial(30, eta=0.2, beta=1.0, zeta=1.1)
        rng = RngStream(40)
        matches = 0
        total = 0
        i = 0
        while total < 1000:
            H = realify_channel(sample_channel(dims, rng.child(0, i)))
            i += 1
            if np.linalg.cond(H) > 10.0:
                continue
            x = sample_signal(dims, rng.child(1, i))
            y = H @ x
            total += 1
            if np.array_equal(ths_detect(H, y, params).hard, brute_force_ml_detect(H, y).hard):
                matches += 1
        assert matches / total >= 0.95

    def test_divergence_names_iteration(self):
        H, x, y = random_system(5)
        params = ThsParams(beta=[1.0, 1.0, 1.0], eta=[1e200, 1e200, 1e200],
                           zeta=[1e200, 1e200, 1e200])
        with pytest.raises(DetectorDivergenceError) as err:
            ths_detect(H, y, params)
        assert err.value.iteration == 1

    def test_trace_shapes_and_recorded_gradient(self):
        H, x, y = random_system(6)
        params = ThsParams.initial(5, eta=0.1, zeta=1.1)
        res = ths_detect(H, y, params, trace=True)
        tr = res.trace
        assert tr.u.shape == (6, H.shape[1])
        assert tr.s.shape == (6, H.shape[1])
        assert tr.gradient_amplitude.shape == (6,)
        assert tr.bit_flip_ratio.shape == (5,)
        assert np.all(tr.gradient_amplitude >= 0)
        assert np.all((0 <= tr.bit_flip_ratio) & (tr.bit_flip_ratio <= 1))
        # recorded G matches an independent recomputation
        for t in range(6):
            assert tr.gradient_amplitude[t] == pytest.approx(
                gradient_amplitude(H, y, tr.s[t]), abs=1e-12)


TRACEABLE = {
    "ths": lambda H, y, trace: ths_detect(H, y, ThsParams.initial(12, eta=0.05, zeta=1.05),
                                          trace=trace),
    "hs": lambda H, y, trace: hs_detect(H, y, HsParams(T=12, eta=0.05), trace=trace),
    "scalable_tpg": lambda H, y, trace: scalable_tpg_detect(
        H, y, TpgParams.initial(12, gamma=0.05), trace=trace),
    "tpg": lambda H, y, trace: tpg_detect(
        H, y, 0.1, TpgParams.initial(12, gamma=0.3, theta=0.5, variant="lmmse"), trace=trace),
}


@pytest.mark.parametrize("name", sorted(TRACEABLE))
class TestTraceDiagnostics:
    """A trace's G_t and flip ratios, derived from its states after the run,
    equal the public per-state diagnostics and a per-state reference."""

    def test_diagnostics_match_per_state_definitions(self, name):
        flips = 0.0
        for seed in range(8):
            H, x, y = random_system(seed, n=6, m=4, noise=0.5)
            tr = TRACEABLE[name](H, y, trace=True).trace
            for t, s in enumerate(tr.s):
                assert tr.gradient_amplitude[t] == pytest.approx(
                    gradient_amplitude(H, y, s), abs=1e-12)
                assert tr.gradient_amplitude[t] == pytest.approx(
                    np.linalg.norm(H.T @ (y - H @ s)) / H.shape[1], abs=1e-12)
            for t in range(tr.bit_flip_ratio.size):
                assert tr.bit_flip_ratio[t] == bit_flip_ratio(tr.s[t], tr.s[t + 1])
                assert tr.bit_flip_ratio[t] == np.mean(
                    hard_decision(tr.s[t]) != hard_decision(tr.s[t + 1]))
            flips += tr.bit_flip_ratio[1:].sum()
        assert flips > 0  # sign changes after the first step did occur

    def test_last_state_is_the_untraced_output(self, name):
        for seed in range(4):
            H, x, y = random_system(seed, n=6, m=4, noise=0.5)
            traced = TRACEABLE[name](H, y, trace=True)
            plain = TRACEABLE[name](H, y, trace=False)
            np.testing.assert_array_equal(traced.trace.s[-1], plain.soft)
            np.testing.assert_array_equal(traced.soft, plain.soft)


class TestHsDetect:
    def test_equals_ths_with_mapped_constants(self):
        # (eta, lambda, beta) maps to constant (beta, eta, 1 + eta/lambda)
        for seed in range(20):
            H, x, y = random_system(seed, n=4, m=3, noise=0.1)
            hs = hs_detect(H, y, HsParams(T=12, eta=0.08, lam=0.9, beta=1.4))
            ths = ths_detect(H, y, ThsParams.initial(12, eta=0.08, beta=1.4,
                                                     zeta=1.0 + 0.08 / 0.9))
            assert np.max(np.abs(hs.soft - ths.soft)) < 1e-12

    def test_first_iteration_state(self):
        H, x, y = random_system(7)
        res = hs_detect(H, y, HsParams(T=3, eta=0.1, lam=1.0, beta=1.0), trace=True)
        np.testing.assert_allclose(res.trace.u[1], 0.1 * (H.T @ y), rtol=0, atol=1e-15)


def _scalable_tpg_single_recursion(H, y, params):
    """Independent oracle: the one-line search-point recursion

    r_{t+1} = tanh(b_t r_t) + c_t H^T (y - H tanh(b_t r_t)), r_0 = 0,

    with the index correspondence c_t = gamma_t and b_t = 1/|theta_{t-1}|,
    soft output tanh(r_T / |theta_{T-1}|).
    """
    T = params.T
    N = H.shape[1]
    r = np.zeros(N)
    for t in range(T):
        proj = np.tanh(r / abs(params.theta[t - 1])) if t > 0 else np.zeros(N)
        r = proj + params.gamma[t] * (H.T @ (y - H @ proj))
    return np.tanh(r / abs(params.theta[T - 1]))


class TestScalableTpg:
    def test_first_iteration_from_zero(self):
        H, x, y = random_system(8)
        params = TpgParams(gamma=[0.3, 0.2], theta=[1.0, 1.0])
        res = scalable_tpg_detect(H, y, params, trace=True)
        # tanh(0) = 0, so the first search point is gamma_0 H^T y
        np.testing.assert_allclose(res.trace.u[1], 0.3 * (H.T @ y), rtol=0, atol=1e-15)

    def test_equivalence_with_single_recursion_form(self):
        gen = np.random.default_rng(9)
        for seed in range(25):
            H, x, y = random_system(seed, n=4, m=3, noise=0.2)
            T = 8
            params = TpgParams(gamma=gen.uniform(0.01, 0.3, T),
                               theta=gen.uniform(0.4, 2.0, T))
            res = scalable_tpg_detect(H, y, params)
            oracle = _scalable_tpg_single_recursion(H, y, params)
            assert np.max(np.abs(res.soft - oracle)) < 1e-12

    def test_true_signal_is_not_a_fixed_point(self):
        # r with x = tanh(beta r) (approximately) gets displaced by the update
        H, x, y = random_system(10, noise=0.0)
        beta = 1.0
        r = np.arctanh(0.999 * x) / beta
        proj = np.tanh(beta * r)
        r_next = proj + 0.1 * (H.T @ (y - H @ proj))
        assert np.linalg.norm(r_next - r) > 0.5

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            TpgParams(gamma=[0.1], theta=[0.0])

    def test_variant_mismatch_rejected(self):
        H, x, y = random_system(11)
        with pytest.raises(ValueError):
            scalable_tpg_detect(H, y, TpgParams(gamma=[0.1], theta=[1.0], variant="lmmse"))


class TestTpg:
    def test_lmmse_matrix_residual(self):
        # W (H H^T + alpha I) = H^T to 1e-10 (independent dense check)
        gen = np.random.default_rng(12)
        for _ in range(10):
            H = gen.standard_normal((6, 10))
            W = lmmse_like_matrix(H, alpha=0.7)
            assert np.max(np.abs(W @ (H @ H.T + 0.7 * np.eye(6)) - H.T)) < 1e-10

    def test_large_alpha_approaches_scaled_scalable(self):
        H, x, y = random_system(13, noise=0.1)
        alpha = 1e8
        T = 6
        gamma = np.full(T, 0.05)
        theta = np.full(T, 1.0)
        res_lmmse = tpg_detect(H, y, 0.0, TpgParams(gamma=alpha * gamma, theta=theta,
                                                    variant="lmmse", alpha=alpha))
        res_scalable = scalable_tpg_detect(H, y, TpgParams(gamma=gamma, theta=theta))
        assert np.max(np.abs(res_lmmse.soft - res_scalable.soft)) < 1e-4

    def test_tiny_theta_gives_hard_projection(self):
        H, x, y = random_system(14)
        params = TpgParams(gamma=[1.0], theta=[1e-8], variant="lmmse", alpha=0.5)
        res = tpg_detect(H, y, 0.0, params, trace=True)
        r0 = res.trace.u[1]
        np.testing.assert_array_equal(res.soft, np.sign(r0))


class TestMmse:
    def test_identity_channel_shrinkage(self):
        y = np.array([0.4, -1.2, 2.0, -0.1])
        res = mmse_detect(np.eye(4), y, sigma2=2.0)
        np.testing.assert_allclose(res.soft, y / 2.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(res.hard, hard_decision(y))

    def test_noiseless_square_inversion_is_exact(self):
        H, x, y = random_system(15, n=4, m=4, noise=0.0)
        res = mmse_detect(H, y, sigma2=0.0)
        np.testing.assert_allclose(res.soft, x, rtol=0, atol=1e-9)

    def test_matches_independent_dense_solve(self):
        gen = np.random.default_rng(16)
        for _ in range(10):
            H = gen.standard_normal((6, 10))
            y = gen.standard_normal(6)
            sigma2 = 0.3
            oracle = H.T @ np.linalg.inv(H @ H.T + (sigma2 / 2) * np.eye(6)) @ y
            assert np.max(np.abs(mmse_detect(H, y, sigma2).soft - oracle)) < 1e-10


class TestBruteForceMl:
    def test_recovers_noiseless_signal(self):
        H, x, y = random_system(17, n=4, m=4, noise=0.0)
        np.testing.assert_array_equal(brute_force_ml_detect(H, y).hard, x)

    def test_componentwise_nearest_point(self):
        res = brute_force_ml_detect(np.eye(2), np.array([0.9, -0.2]))
        np.testing.assert_array_equal(res.hard, [1.0, -1.0])

    def test_beats_random_hypercube_points(self):
        gen = np.random.default_rng(18)
        H = gen.standard_normal((6, 10))
        y = gen.standard_normal(6)
        best = ml_objective(H, y, brute_force_ml_detect(H, y).hard)
        random_points = 1.0 - 2.0 * gen.integers(0, 2, size=(1000, 10)).astype(float)
        assert all(best <= ml_objective(H, y, p) + 1e-12 for p in random_points)

    def test_tie_break_is_lexicographic(self):
        # zero channel makes every vertex optimal; +1 before -1 wins
        res = brute_force_ml_detect(np.zeros((2, 3)), np.zeros(2))
        np.testing.assert_array_equal(res.hard, [1.0, 1.0, 1.0])

    def test_enumeration_guard(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_ml_detect(np.zeros((2, 21)), np.zeros(2))

    def test_vertex_enumeration_order(self):
        X = hypercube_vertices(2, 0, 4)
        np.testing.assert_array_equal(X, [[1, 1], [1, -1], [-1, 1], [-1, -1]])


class TestCrossDetectorInvariants:
    def test_soft_outputs_within_tanh_range(self):
        for seed in range(10):
            H, x, y = random_system(seed, n=4, m=3, noise=0.3)
            outs = [
                ths_detect(H, y, ThsParams.initial(10, eta=0.05, zeta=1.05)).soft,
                hs_detect(H, y, HsParams(T=10, eta=0.05)).soft,
                scalable_tpg_detect(H, y, TpgParams.initial(10, gamma=0.05)).soft,
                tpg_detect(H, y, 0.1, TpgParams.initial(10, gamma=0.3, variant="lmmse",
                                                        alpha=1.0)).soft,
            ]
            for soft in outs:
                assert np.all(np.abs(soft) < 1.0)

    def test_monotone_saturation_in_beta(self):
        gen = np.random.default_rng(19)
        u = gen.standard_normal(12)
        prev = np.abs(np.tanh(0.2 * u))
        for beta in (0.5, 1.0, 2.0, 5.0):
            cur = np.abs(np.tanh(beta * u))
            assert np.all(cur >= prev)
            prev = cur

    def test_ml_objective_is_global_minimum(self):
        for seed in range(25):
            H, x, y = random_system(seed, n=3, m=2, noise=0.4)
            best = ml_objective(H, y, brute_force_ml_detect(H, y).hard)
            for res in (
                ths_detect(H, y, ThsParams.initial(20, eta=0.2, zeta=1.1)),
                hs_detect(H, y, HsParams(T=20)),
                scalable_tpg_detect(H, y, TpgParams.initial(20)),
                mmse_detect(H, y, 0.2),
            ):
                assert best <= ml_objective(H, y, res.hard) + 1e-12
