import sys
import threading

import numpy as np
import pytest

from jetflow import _blas, experiments, vectorfield
from jetflow.errors import BlowupError
from jetflow.experiments import run_experiment
from jetflow.fock import SampleSet
from jetflow.maps import eval_map_batch, parse_map
from jetflow.pushforward import _BLOCK_ROWS, fold_pushforward, rank_checked_lstsq
from jetflow.reconstruct import reconstruct_eval
from jetflow.vectorfield import flow_ensemble

pools = _blas._pools()
pytestmark = pytest.mark.skipif(not pools, reason="no OpenBLAS pool is loaded")

FIELD = "-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2"


def counts():
    return [get() for _, get in pools]


@pytest.fixture
def two_threads():
    """Every pool at 2 threads for the test, its own count back after it."""
    before = counts()
    for set_, _ in pools:
        set_(2)
    yield
    for (set_, _), n in zip(pools, before):
        set_(n)


def test_fold_runs_on_one_thread_and_restores_the_count(two_threads):
    seen = []

    def blocks():
        for _ in range(3):
            seen.append(counts())
            yield (np.random.default_rng(len(seen)).standard_normal((50, 5)),)

    rank_checked_lstsq(blocks(), 4, "x")
    assert seen == [[1] * len(pools)] * 3
    assert counts() == [2] * len(pools)


def test_fold_restores_the_count_after_a_raise(two_threads):
    def blocks():
        yield (np.ones((10, 3)),)
        raise RuntimeError("block generator failed")

    with pytest.raises(RuntimeError, match="block generator failed"):
        rank_checked_lstsq(blocks(), 2, "x")
    assert counts() == [2] * len(pools)


def probed_rhs(monkeypatch):
    seen = []

    def probed(f, points):
        seen.append((threading.get_ident(), counts()))
        return eval_map_batch(f, points)

    monkeypatch.setattr(vectorfield, "eval_map_batch", probed)
    return seen


def test_flow_runs_on_one_thread_and_restores_the_count(two_threads, monkeypatch):
    seen = probed_rhs(monkeypatch)
    # 200 points: the two halves step on two threads, each with every pool at 1
    flow_ensemble(parse_map(FIELD, 2, 2), 0.5, np.full((200, 2), 0.3))
    assert len({ident for ident, _ in seen}) == 2
    assert all(c == [1] * len(pools) for _, c in seen)
    assert counts() == [2] * len(pools)


def test_flow_restores_the_count_after_a_blowup(two_threads, monkeypatch):
    seen = probed_rhs(monkeypatch)
    with pytest.raises(BlowupError):
        flow_ensemble(parse_map("z1^2", 1, 1), 10.0, [[1.0]])
    assert seen and all(c == [1] * len(pools) for _, c in seen)
    assert counts() == [2] * len(pools)


def test_map_reconstruction_reads_off_on_one_thread(two_threads, monkeypatch, tmp_path):
    seen = []

    def probed(*args):
        seen.append(counts())
        return reconstruct_eval(*args)

    monkeypatch.setattr(experiments, "reconstruct_eval", probed)
    monkeypatch.setenv(experiments.OUTPUT_ENV, str(tmp_path))
    run_experiment(experiments.demo_config("map-reconstruction"))
    assert seen and all(c == [1] * len(pools) for c in seen)
    assert counts() == [2] * len(pools)


def test_nested_and_concurrent_bodies_restore_the_count_once(two_threads):
    # the counts are process-wide: only the last body to exit gives them back
    seen, failed = [], []

    def worker():
        try:
            for _ in range(200):
                with _blas.calling_thread():
                    with _blas.calling_thread():
                        seen.append(counts())
                    seen.append(counts())
        except Exception as exc:
            failed.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failed
    assert len(seen) == 4 * 200 * 2 and all(c == [1] * len(pools) for c in seen)
    assert counts() == [2] * len(pools)


def test_complex_fold_is_the_same_at_one_and_two_threads(two_threads):
    # the zgeqrt case of test_fold_equals_the_stacked_fold_bit_for_bit, whose
    # R differs between 1 and 2 threads unless the fold pins its BLAS
    rng = np.random.default_rng(12)
    f = parse_map(FIELD, 2, 2)
    p = np.array([0.1, -0.2]) + 0.2j * np.array([1.0, -0.5])
    Z = p.real + rng.uniform(-0.4, 0.4, (2 * _BLOCK_ROWS + 7, 2))
    samples = SampleSet(Z=Z, W=eval_map_batch(f, Z))
    q = eval_map_batch(f, p[None, :])[0]
    R = {}
    for n in (1, 2):
        for set_, _ in pools:
            set_(n)
        R[n] = fold_pushforward(p, q, 2, 5, samples).R
    assert R[1].dtype == np.complex128
    assert np.array_equal(R[1], R[2])
