import math
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import DOP853, solve_ivp

from jetflow import _blas, vectorfield
from jetflow.errors import (
    BlowupError,
    InputError,
    JetflowError,
    QuadratureConvergenceError,
    SpectrumError,
)
from jetflow.hankel import MeasureSpec
from jetflow.maps import eval_map_batch, parse_map
from jetflow.pushforward import PushforwardEstimate, estimate_pushforward, oracle_pushforward
from jetflow.reconstruct import truncated_lsq
from jetflow.sampling import draw_samples
from jetflow.vectorfield import (
    GeneratorEstimate,
    bound_B,
    check_equilibrium,
    estimate_generator,
    flow_ensemble,
    flow_map,
    flow_sample_set,
    matrix_log,
    reconstruct_field,
)


def logistic_flow(z0, t, b=0.2):
    # closed form for dz/dt = -z + b z^2
    return 1.0 / (b + (1.0 / z0 - b) * math.exp(t))


def oracle_estimate(f, p, m):
    o = oracle_pushforward(f, np.asarray(p, dtype=np.float64), m)
    d = len(p)
    return PushforwardEstimate(
        C_hat=o.C, m=m, n=m, d=d, r=d,
        pinv_rcond=0.0, smallest_kept_sv=1.0, largest_sv=1.0,
    )


def test_flow_linear_decay():
    V = parse_map("-z1", 1, 1)
    out = flow_map(V, 1.0, [1.0])
    assert abs(out[0] - math.exp(-1)) < 1e-9


def test_flow_zero_field():
    V = parse_map("0*z1; 0*z2", 2, 2)
    out = flow_map(V, 2.0, [0.3, -0.4])
    assert np.allclose(out, [0.3, -0.4], atol=1e-12)


def test_flow_logistic_closed_form():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    out = flow_map(V, 0.1, [0.4])
    assert abs(out[0] - logistic_flow(0.4, 0.1)) < 1e-8


def test_flow_ensemble_matches_pointwise():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    Z = np.linspace(-0.4, 0.4, 9)[:, None]
    W = flow_ensemble(V, 0.1, Z)
    for k, z0 in enumerate(Z[:, 0]):
        if z0 == 0:
            assert abs(W[k, 0]) < 1e-12
        else:
            assert abs(W[k, 0] - logistic_flow(z0, 0.1)) < 1e-8


def test_flow_blowup_detected():
    V = parse_map("z1^2", 1, 1)
    with pytest.raises(BlowupError):
        flow_map(V, 10.0, [1.0])


def test_non_finite_field_at_the_start_points_raises_blowup():
    # 1e400 parses to inf: V is inf at 0.3 and inf * 0 = NaN at 0, where
    # DOP853's first step size is NaN and its step loop would never end; a
    # half of one point meets 0 * inf in DOP853's first-step guess, and only
    # the BlowupError may show, no warning
    V = parse_map("1e400*z1", 1, 1)
    for N in (1, 2, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError, match="not finite"):
                flow_ensemble(V, 0.1, np.linspace(0.3, 0.0, N)[:, None])


def test_non_finite_field_is_no_equilibrium():
    with pytest.raises(ValueError, match="nan"):
        check_equilibrium(parse_map("1e400*z1", 1, 1), [0.0])


def test_flow_sample_set_provenance():
    V = parse_map("-z1", 1, 1)
    Z = np.linspace(-0.3, 0.3, 5)[:, None]
    s = flow_sample_set(V, 0.2, Z, 1e-10)
    assert len(s) == 5
    assert np.allclose(s.W, Z * math.exp(-0.2), atol=1e-9)


def test_check_equilibrium():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    check_equilibrium(V, [0.0])
    with pytest.raises(ValueError):
        check_equilibrium(V, [0.1])


_SQUARE = parse_map("-z1 + 0.2*z1^2", 1, 1)
_ESTIMATE = PushforwardEstimate(C_hat=np.eye(2, dtype=np.complex128), m=1, n=1, d=1, r=1,
                                pinv_rcond=0.0, smallest_kept_sv=1.0, largest_sv=1.0)


@pytest.mark.parametrize("call", [
    lambda: flow_ensemble(parse_map("z1; z2; z1", 2, 3), 0.1, [[0.0, 0.0]]),
    lambda: flow_ensemble(_SQUARE, 0.0, [[0.1]]),
    lambda: flow_ensemble(_SQUARE, 0.1, [[0.1, 0.2]]),
    lambda: check_equilibrium(parse_map("1/z1", 1, 1), [0.0]),
    lambda: check_equilibrium(_SQUARE, [0.1]),
    lambda: matrix_log(np.ones((2, 3))),
    lambda: bound_B(np.eye(2), grid=0),
    lambda: estimate_generator(_ESTIMATE, 0.0),
    lambda: estimate_generator(PushforwardEstimate(
        C_hat=np.ones((3, 2), dtype=np.complex128), m=1, n=1, d=1, r=2,
        pinv_rcond=0.0, smallest_kept_sv=1.0, largest_sv=1.0), 0.1),
], ids=["field-not-square", "time-not-positive", "start-points-shape", "pole-at-p",
        "not-an-equilibrium", "log-not-square", "grid-not-positive", "generator-time",
        "block-not-square"])
def test_argument_checks_raise_input_error(call):
    # a JetflowError, so `jetflow run` turns it into a record, and a ValueError as before
    with pytest.raises(InputError):
        call()


def test_matrix_log_diagonal():
    L = matrix_log(np.diag([2.0, 3.0]))
    assert np.abs(L - np.diag([math.log(2), math.log(3)])).max() < 1e-12


def test_matrix_log_identity():
    assert np.abs(matrix_log(np.eye(4))).max() < 1e-13


def test_matrix_log_nilpotent():
    L = matrix_log(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.abs(L - np.array([[0, 1], [0, 0]])).max() < 1e-10


def test_matrix_log_matches_spectral():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = rng.uniform(0.3, 2.5, 4)
        S = rng.uniform(-1, 1, (4, 4)) + np.eye(4) * 2
        C = S @ np.diag(lam) @ np.linalg.inv(S)
        L = matrix_log(C)
        expect = S @ np.diag(np.log(lam)) @ np.linalg.inv(S)
        assert np.abs(L - expect).max() < 1e-9


def test_matrix_log_exp_roundtrip():
    rng = np.random.default_rng(1)
    count = 0
    while count < 50:
        A = rng.uniform(-0.4, 0.4, (5, 5)) + np.eye(5)
        ev = np.linalg.eigvals(A)
        if ev.real.min() <= 0.05:
            continue
        count += 1
        L = matrix_log(A)
        back = scipy.linalg.expm(L)
        assert np.linalg.norm(back - A) <= 1e-8 * np.linalg.norm(A)


def test_matrix_log_rejects_negative_spectrum():
    with pytest.raises(SpectrumError):
        matrix_log(np.diag([1.0, -2.0]))
    with pytest.raises(SpectrumError):
        matrix_log(np.diag([1.0, 0.0]))


def test_matrix_log_quadrature_cap():
    C = np.diag([1.0, 1e-9])
    with pytest.raises((QuadratureConvergenceError, SpectrumError)):
        matrix_log(C, quad_tol=1e-15, max_nodes=16)


def test_semigroup_property():
    flows = {}
    for t in (0.1, 0.2, 0.3):
        f = parse_map(f"{math.exp(-t):.17g}*z1", 1, 1)
        flows[t] = oracle_pushforward(f, np.array([0.0]), 3).C
    assert np.abs(flows[0.1] @ flows[0.2] - flows[0.3]).max() < 1e-9


def test_estimate_generator_diagonal():
    a = np.array([0.3, -0.7, 1.1])
    est = PushforwardEstimate(
        C_hat=np.diag(np.exp(0.5 * a)).astype(np.complex128),
        m=1, n=1, d=2, r=2,
        pinv_rcond=0.0, smallest_kept_sv=1.0, largest_sv=1.0,
    )
    gen = estimate_generator(est, 0.5)
    assert np.abs(gen.A_hat - np.diag(a)).max() < 1e-9
    assert gen.log_residual < 1e-8


def test_generator_linear_pipeline():
    V = parse_map("-z1", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z = draw_samples(mu, 2000, "iid", seed=3)
    samples = flow_sample_set(V, 0.1, Z, 1e-10)
    est = estimate_pushforward([0.0], [0.0], 3, 3, samples)
    gen = estimate_generator(est, 0.1)
    assert np.abs(gen.A_hat - np.diag([0, -1, -2, -3])).max() < 2e-3


def test_reconstruct_field_zero_generator():
    V = parse_map("-z1", 1, 1)
    est = oracle_estimate(parse_map("z1", 1, 1), [0.0], 3)
    gen = estimate_generator(est, 1.0)
    out = reconstruct_field(gen, [0.0], 3, [0.37])
    assert abs(out[0]) < 1e-10


def test_reconstruct_field_linear():
    V = parse_map("-z1", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z = draw_samples(mu, 2000, "iid", seed=4)
    samples = flow_sample_set(V, 0.1, Z, 1e-10)
    est = estimate_pushforward([0.0], [0.0], 3, 3, samples)
    gen = estimate_generator(est, 0.1)
    out = reconstruct_field(gen, [0.0], 3, [0.3])
    assert abs(out[0] + 0.3) < 5e-3


def test_reconstruct_field_nonlinear_end_to_end():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.4])
    Z = draw_samples(mu, 4000, "iid", seed=5)
    samples = flow_sample_set(V, 0.1, Z, 1e-10)
    est = estimate_pushforward([0.0], [0.0], 5, 8, samples)
    gen = estimate_generator(est, 0.1)
    worst = 0.0
    for z in np.linspace(-0.3, 0.3, 61):
        out = reconstruct_field(gen, [0.0], 5, [z])
        worst = max(worst, abs(out[0] - (-z + 0.2 * z * z)))
    assert worst < 5e-3


def test_bound_B_values():
    assert bound_B(np.eye(3)) == pytest.approx(1.0)
    assert bound_B(np.diag([2.0])) == pytest.approx(1.0)
    assert bound_B(np.diag([0.5])) == pytest.approx(2.0)


def test_bound_B_singular_pencil():
    assert bound_B(np.diag([-1.0]), grid=100) == math.inf
    assert bound_B(np.diag([-1.0])) > 100.0


def test_log_perturbation_guard():
    rng = np.random.default_rng(6)
    C = np.diag([0.8, 1.0, 1.4, 2.0])
    B = bound_B(C)
    gamma2 = 0.5
    logC = matrix_log(C)
    for _ in range(10):
        E = rng.uniform(-1, 1, (4, 4))
        E *= 0.9 * (1 - gamma2) / (B * np.linalg.norm(E, 2))
        pert = matrix_log(C + E)
        lhs = np.linalg.norm(pert - logC, 2)
        rhs = (B * B / gamma2) * np.linalg.norm(E)
        assert lhs <= rhs


def test_flow_ensemble_matches_complex_rhs():
    # the reference right-hand side evaluates the field in complex arithmetic
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    Z = draw_samples(MeasureSpec.uniform_box([0.0], [0.4]), 200, "halton")

    def rhs(_t, y):
        return eval_map_batch(V, y.astype(np.complex128)[:, None]).real[:, 0]

    ref = solve_ivp(rhs, (0.0, 0.1), Z[:, 0], method="DOP853", rtol=1e-10, atol=1e-10)
    W = flow_ensemble(V, 0.1, Z)
    assert np.abs(W[:, 0] - ref.y[:, -1]).max() < 1e-13


def test_flow_ensemble_logistic_closed_form_on_a_line():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    z0 = np.linspace(-0.4, 0.4, 201)
    decay = math.exp(-0.1)
    exact = z0 * decay / (1.0 - 0.2 * z0 * (1.0 - decay))
    W = flow_ensemble(V, 0.1, z0[:, None])
    assert np.abs(W[:, 0] - exact).max() < 1e-12


def stock_dop853(V, T, Z, tol=1e-10, seen=None):
    """scipy's DOP853 on the flattened rows of each half of Z, cut at N // 2, the halves concatenated.

    Returns the final rows and each half's nfev; `seen` gets, per half, the points of each right-hand side.
    """
    cut = len(Z) // 2
    rows, nfev = [], []
    for half in ([Z[:cut], Z[cut:]] if cut else [Z]):
        stages = []

        def rhs(_t, y):
            points = y.reshape(-1, V.d)
            if seen is not None:
                stages.append(points.copy())
            return eval_map_batch(V, points).reshape(-1)

        with _blas.calling_thread():
            solver = DOP853(rhs, 0.0, half.reshape(-1), T, rtol=tol, atol=tol)
            while solver.status == "running":
                solver.step()
        assert solver.status == "finished"
        rows.append(solver.y.reshape(half.shape))
        nfev.append(solver.nfev)
        if seen is not None:
            seen.append(stages)
    return np.concatenate(rows), nfev


def test_flow_ensemble_right_hand_side_count(monkeypatch):
    # the flow-d2 benchmark field; an order-4(5) pair takes 110 right-hand sides here
    V = parse_map("-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2", 2, 2)
    Z = draw_samples(MeasureSpec.uniform_box([0.0, 0.0], [0.4, 0.4]), 2000, "iid", 3)
    calls = []

    def counted(f, points):
        calls.append((threading.get_ident(), points.copy()))
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", counted)
    flow_ensemble(V, 0.5, Z, 1e-10)
    halves = []
    stock_dop853(V, 0.5, Z, seen=halves)
    caller = threading.get_ident()
    # the first 1000 rows step on the calling thread, the other 1000 on the worker,
    # each half's right-hand sides the rows that stock DOP853 passes on that half
    for half, on_caller in zip(halves, (True, False)):
        mine = [points for ident, points in calls if (ident == caller) == on_caller]
        assert len(mine) == len(half) < 80
        assert all(np.array_equal(a, b) and a.shape == (1000, 2) for a, b in zip(mine, half))


FIELDS = {
    (1, "polynomial"): "-z1 + 0.2*z1^2",
    (1, "exp/sin/cos"): "sin(z1) - 0.3*exp(z1)*cos(z1)",
    (2, "polynomial"): "-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2",
    (2, "exp/sin/cos"): "sin(z2) - z1; 1 - exp(z1)*cos(z2) - 0.5*z2",
    (3, "polynomial"): "-z1 + z2*z3; -z2 + 0.5*z1^2; -0.3*z3 + z1*z2",
    (3, "exp/sin/cos"): "sin(z2) - z1; cos(z3) - 1 - z2; exp(-z1) - 1 - z3",
}


@pytest.mark.parametrize("d, kind", FIELDS, ids=[f"d{d}-{kind}" for d, kind in FIELDS])
def test_flow_ensemble_is_scipys_dop853_bit_for_bit(d, kind, monkeypatch):
    calls = Counter()

    def counted(f, points):
        calls[threading.get_ident()] += 1
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", counted)
    caller = threading.get_ident()
    V = parse_map(FIELDS[d, kind], d, d)
    rng = np.random.default_rng(d)
    # one solver at one point, then halves of equal and of unequal length
    for N in (1, 2, 127, 128, 129, 2001, 100000):
        Z = rng.uniform(-0.4, 0.4, (N, d))
        for T in (0.1, 0.5, 2.0):
            ref, nfev = stock_dop853(V, T, Z)
            calls.clear()
            W = flow_ensemble(V, T, Z)
            assert W.tobytes() == ref.tobytes(), (N, T)
            # each half's right-hand sides, the calling thread's first, are its solver's nfev
            assert [calls.pop(caller), *calls.values()] == nfev, (N, T)


def test_concurrent_flows_under_a_short_switch_interval():
    # four callers, each with its own worker: eight threads on the machine's cores
    V = parse_map(FIELDS[2, "polynomial"], 2, 2)
    Z = np.random.default_rng(4).uniform(-0.4, 0.4, (300, 2))
    ref, _ = stock_dop853(V, 0.5, Z)
    results, failed = [], []

    def caller():
        try:
            for _ in range(10):
                results.append(flow_ensemble(V, 0.5, Z).tobytes() == ref.tobytes())
        except Exception as exc:
            failed.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failed
    assert results == [True] * 40


def test_flow_leaves_no_thread_behind():
    before = threading.active_count()
    flow_ensemble(parse_map(FIELDS[2, "polynomial"], 2, 2), 0.5, np.full((200, 2), 0.3))
    assert threading.active_count() == before
    for N in (1, 200):
        with pytest.raises(BlowupError):
            flow_ensemble(parse_map("z1^2", 1, 1), 10.0, np.ones((N, 1)))
        assert threading.active_count() == before


@pytest.mark.parametrize("raising", ["calling", "worker"])
def test_a_raising_half_propagates_after_the_other_half_stops(raising, monkeypatch):
    caller = threading.get_ident()
    raised, late = threading.Event(), []

    def probed(f, points):
        on_caller = threading.get_ident() == caller
        if len(points) < 200:  # a half's call, not the solver's start over all rows
            if on_caller == (raising == "calling"):
                raise RuntimeError("half failed")
            time.sleep(0.005)
            if raised.is_set():
                late.append(len(points))
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", probed)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="half failed"):
        flow_ensemble(parse_map("-z1; -z2", 2, 2), 0.5, np.full((200, 2), 0.3))
    raised.set()
    time.sleep(0.05)
    assert not late and threading.active_count() == before


@pytest.mark.parametrize("raising", ["calling", "worker"])
def test_the_other_half_stops_within_one_step_of_a_raise(raising, monkeypatch):
    # the raising half fails at its 25th call, mid-flow; one DOP853 step is 12 calls
    caller = threading.get_ident()
    raised, calls, after = threading.Event(), Counter(), []

    def probed(f, points):
        on_caller = threading.get_ident() == caller
        if len(points) < 200:  # a half's call, not the solver's start over all rows
            calls[on_caller] += 1
            if on_caller == (raising == "calling"):
                if calls[on_caller] == 25:
                    raised.set()
                    raise RuntimeError("half failed")
            elif raised.is_set():
                after.append(len(points))
            time.sleep(0.002)
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", probed)
    with pytest.raises(RuntimeError, match="half failed"):
        flow_ensemble(parse_map("-z1; -z2", 2, 2), 0.5, np.full((200, 2), 0.3))
    assert raised.is_set() and len(after) <= 12


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy keeps its error state in a context variable from 2.0 on")
def test_both_halves_see_the_callers_numpy_error_state(monkeypatch):
    seen = []

    def probed(f, points):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", probed)
    with np.errstate(over="raise"):
        flow_ensemble(parse_map("-z1; -z2", 2, 2), 0.5, np.full((200, 2), 0.3))
    assert len({ident for ident, _ in seen}) == 2
    assert {state for _, state in seen} == {"raise"}


def test_complex_points_raise_a_jetflow_error():
    X = np.array([[0.2 + 0.3j]])
    for call in (lambda: flow_ensemble(parse_map("-z1", 1, 1), 0.1, X),
                 lambda: truncated_lsq(X, [1.0], 1, 1)):
        with pytest.raises(JetflowError, match="complex"):
            call()


def test_complex_start_points_rejected():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    for call in (lambda: flow_ensemble(V, 0.1, np.array([[0.2 + 0.3j]])),
                 lambda: flow_map(V, 0.1, [0.2 + 0.3j]),
                 lambda: flow_sample_set(V, 0.1, np.array([[0.2 + 0.3j]]))):
        with pytest.raises(ValueError, match="complex start points are not supported"):
            call()


def test_complex_start_points_with_zero_imaginary_part():
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    real = flow_map(V, 0.1, [0.2])
    assert np.array_equal(flow_map(V, 0.1, [0.2 + 0j]), real)
    assert np.array_equal(flow_ensemble(V, 0.1, np.array([[0.2 + 0j]]))[0], real)
    s = flow_sample_set(V, 0.1, np.array([[0.2 + 0j]]))
    assert s.Z[0, 0] == 0.2 and np.array_equal(s.W[0].real, real)


def test_reconstruct_field_point_and_grid():
    rng = np.random.default_rng(8)
    gen = GeneratorEstimate(A_hat=rng.standard_normal((10, 10)), T=1.0, log_residual=0.0)
    grid = rng.uniform(-0.3, 0.3, (6, 2))
    out = reconstruct_field(gen, [0.0, 0.0], 3, grid)
    assert out.shape == (6, 2)
    for k, z in enumerate(grid):
        single = reconstruct_field(gen, [0.0, 0.0], 3, z)
        assert single.shape == (2,)
        assert np.abs(single - out[k]).max() < 1e-14
