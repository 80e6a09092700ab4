import numpy as np
import pytest

from jetflow.hankel import MeasureSpec, moment_matrix
from jetflow.pushforward import gamma_check
from jetflow.sampling import draw_samples, halton_points


def test_grid_three_points():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    Z = draw_samples(mu, 3, "grid")
    assert np.allclose(sorted(Z[:, 0]), [-1, 0, 1])


def test_grid_2d_counts():
    mu = MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0])
    Z = draw_samples(mu, 9, "grid")
    assert Z.shape == (9, 2)
    assert len(np.unique(Z[:, 0])) == 3


def test_grid_single_point_is_center():
    mu = MeasureSpec.uniform_box([0.4], [1.0])
    Z = draw_samples(mu, 1, "grid")
    assert np.allclose(Z, [[0.4]])


def test_grid_perfect_fifth_power_is_the_full_grid():
    # 3125 ** (1/5) is 5.000000000000001 in floating point: the side must still be 5
    mu = MeasureSpec.uniform_box([0.0] * 5, [1.0] * 5)
    Z = draw_samples(mu, 3125, "grid")
    assert len(np.unique(Z, axis=0)) == 3125
    for k in range(5):
        assert np.array_equal(np.unique(Z[:, k]), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert (np.abs(Z).max(axis=1) == 0).sum() == 1


def test_determinism_per_scheme():
    mu = MeasureSpec.uniform_box([0.0, 0.0], [1.0, 2.0])
    for scheme in ("iid", "grid", "halton"):
        a = draw_samples(mu, 100, scheme, seed=42)
        b = draw_samples(mu, 100, scheme, seed=42)
        assert np.array_equal(a, b)


def test_iid_seeds_differ():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    a = draw_samples(mu, 50, "iid", seed=1)
    b = draw_samples(mu, 50, "iid", seed=2)
    assert not np.array_equal(a, b)


def test_samples_inside_box():
    mu = MeasureSpec.uniform_box([0.5, -1.0], [0.5, 2.0])
    for scheme in ("iid", "grid", "halton"):
        Z = draw_samples(mu, 200, scheme, seed=0)
        assert Z[:, 0].min() >= 0.0 - 1e-12 and Z[:, 0].max() <= 1.0 + 1e-12
        assert Z[:, 1].min() >= -3.0 - 1e-12 and Z[:, 1].max() <= 1.0 + 1e-12


def test_samples_inside_ball():
    mu = MeasureSpec.uniform_ball([1.0, 0.0], 0.5)
    for scheme in ("iid", "grid", "halton"):
        Z = draw_samples(mu, 300, scheme, seed=1)
        assert Z.shape == (300, 2)
        r = np.linalg.norm(Z - np.array([1.0, 0.0]), axis=1)
        assert r.max() <= 0.5 * (1 + 1e-9)


def test_ball_radius_law():
    # |z|^d is uniform for the uniform ball measure
    mu = MeasureSpec.uniform_ball([0.0, 0.0], 1.0)
    Z = draw_samples(mu, 40000, "iid", seed=9)
    u = np.linalg.norm(Z, axis=1) ** 2
    hist, _ = np.histogram(u, bins=10, range=(0, 1))
    assert np.abs(hist / 4000.0 - 1).max() < 0.05


def test_iid_moments_close():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    Z = draw_samples(mu, 20000, "iid", seed=7)
    exact = {2: 1 / 3, 4: 1 / 5}
    for k in (1, 3):
        assert abs(np.mean(Z[:, 0] ** k)) < 0.02
    for k, v in exact.items():
        assert abs(np.mean(Z[:, 0] ** k) - v) < 0.02


def test_empirical_moments_rate():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    exact = moment_matrix(mu, 3)
    N = 20000
    for seed in range(20):
        Z = draw_samples(mu, N, "iid", seed=seed)
        emp = moment_matrix(MeasureSpec.empirical(Z), 3)
        assert np.abs(emp - exact).max() < 3 / np.sqrt(N)


def test_halton_gamma_small():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    Z = draw_samples(mu, 500, "halton")
    for n in (1, 2, 3):
        assert gamma_check(moment_matrix(mu, n), moment_matrix(MeasureSpec.empirical(Z), n)) <= 0.5


def test_halton_prefix_property():
    a = halton_points(100, 2)
    b = halton_points(200, 2)
    assert np.array_equal(b[:100], a)
    assert a.min() > 0 and a.max() < 1


def test_halton_first_points():
    a = halton_points(4, 2)
    assert np.allclose(a[:, 0], [1 / 2, 1 / 4, 3 / 4, 1 / 8])
    assert np.allclose(a[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9])


def test_invalid_inputs():
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    with pytest.raises(ValueError):
        draw_samples(mu, 0, "iid")
    with pytest.raises(ValueError):
        draw_samples(mu, 10, "sobol")
    with pytest.raises(ValueError):
        draw_samples(MeasureSpec.empirical(np.zeros((2, 1))), 5, "iid")


@pytest.mark.parametrize("measure", [MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0]),
                                     MeasureSpec.uniform_ball([0.0, 0.0], 1.0)])
def test_grid_subset_is_point_symmetric(measure):
    # N = 10 is no perfect square: 10 of the 16 (box) grid points are kept
    Z = draw_samples(measure, 10, "grid")
    assert Z.shape == (10, 2) and len(np.unique(Z, axis=0)) == 10
    assert np.abs(Z.mean(axis=0)).max() < 1e-12
    if measure.kind == "uniform_box":
        assert Z[:, 0].min() == -1.0 and Z[:, 0].max() == 1.0


@pytest.mark.parametrize("measure", [MeasureSpec.uniform_box([0.0] * 21, [1.0] * 21),
                                     MeasureSpec.uniform_ball([0.0] * 21, 1.0)])
def test_halton_rejects_more_than_20_dimensions(measure):
    with pytest.raises(ValueError, match="up to 20 dimensions"):
        draw_samples(measure, 4, "halton")
