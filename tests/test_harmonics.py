import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from so3density import harmonics as H
from so3density.config import ExperimentConfig
from so3density.estimators import characteristic_spectrum
from so3density.rotations import Rotation
from so3density.sampling import RotationSample, sample_mixture, sample_uniform
from so3density.transform import QuadratureGrid, synthesize, synthesize_at

rng = np.random.default_rng(5150)


def angular_momentum_y(ell):
    # J_y in the |ell, m> basis with m increasing; independent construction
    m = np.arange(-ell, ell + 1)
    jp = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
    for i in range(2 * ell):
        jp[i + 1, i] = np.sqrt(ell * (ell + 1) - m[i] * (m[i] + 1))
    return (jp - jp.conj().T) / 2j


@pytest.mark.parametrize("ell", [1, 2, 3, 5, 8])
def test_wigner_d_matches_matrix_exponential(ell):
    for theta in (0.3, 1.234, 2.9):
        d = H.wigner_d(ell, theta)
        ref = expm(-1j * theta * angular_momentum_y(ell))
        assert np.abs(ref.imag).max() < 1e-13
        assert np.abs(d - ref.real).max() < 1e-12


def test_wigner_d_at_zero_is_identity():
    assert np.abs(H.wigner_d(6, 0.0) - np.eye(13)).max() < 1e-14


def test_spin_one_block_is_rotation_matrix_in_spherical_basis():
    # columns of U are the spherical basis vectors e_{-1}, e_0, e_{+1}
    U = np.array(
        [
            [1 / np.sqrt(2), 0, -1 / np.sqrt(2)],
            [-1j / np.sqrt(2), 0, -1j / np.sqrt(2)],
            [0, 1, 0],
        ]
    )
    for _ in range(10):
        r = Rotation.from_quaternion(rng.normal(size=4))
        D1 = H.wigner_D(1, r.to_euler_zyz())
        assert np.abs(D1 - U.conj().T @ r.to_matrix() @ U).max() < 1e-13


@pytest.mark.parametrize("ell", [1, 4, 16, 32])
def test_wigner_D_is_unitary(ell):
    r = Rotation.from_quaternion(rng.normal(size=4))
    D = H.wigner_D(ell, r.to_euler_zyz())
    assert np.abs(D @ D.conj().T - np.eye(2 * ell + 1)).max() < 1e-12


@pytest.mark.parametrize("ell", [1, 3, 8])
def test_wigner_D_is_a_homomorphism(ell):
    a = Rotation.from_quaternion(rng.normal(size=4))
    b = Rotation.from_quaternion(rng.normal(size=4))
    Da = H.wigner_D(ell, a.to_euler_zyz())
    Db = H.wigner_D(ell, b.to_euler_zyz())
    Dab = H.wigner_D(ell, a.compose(b).to_euler_zyz())
    assert np.abs(Da @ Db - Dab).max() < 1e-12


def test_trace_equals_character():
    for ell in (0, 1, 2, 7, 12):
        r = Rotation.from_quaternion(rng.normal(size=4))
        D = H.wigner_D(ell, r.to_euler_zyz())
        assert abs(np.trace(D) - H.character(ell, r)) < 1e-11


def test_character_closed_forms():
    assert H.character(5, Rotation.identity()) == pytest.approx(11.0, abs=1e-13)
    for ell in (1, 2, 9):
        omega = rng.uniform(0.05, np.pi - 0.05, size=8)
        q = np.array([Rotation.from_axis_angle((rng.normal(size=3), w)).q for w in omega])
        chi = H.character(ell, q)
        ref = np.sin((ell + 0.5) * omega) / np.sin(omega / 2)
        assert chi.shape == (8,)
        assert np.abs(chi - ref).max() < 1e-11


def test_characters_all_against_sine_ratio_at_l_max():
    # chi^l = sin((2l+1) w/2) / sin(w/2) with w/2 = arccos of the given input,
    # whose limit at cos_half = 1 is 2l+1; cos_half = 0 gives (-1)^l
    L = H.L_MAX
    t = np.concatenate([[1.0, 0.0], np.cos(rng.uniform(0.0, np.pi, size=4000) / 2.0)])
    half = np.arccos(t[1:])
    n = 2.0 * np.arange(L + 1) + 1.0
    ref = np.empty((L + 1, t.shape[0]))
    ref[:, 0] = n
    ref[:, 1:] = np.sin(np.outer(n, half)) / np.sin(half)
    chi = H.characters_all(L, t)
    assert chi.shape == ref.shape
    assert np.max(np.abs(chi - ref) / n[:, None]) <= 5e-14
    assert np.all(chi[:, 0] == n)
    assert H.characters_all(3, 0.5).shape == (4,)


def test_wigner_d_stack_consistent_with_single():
    thetas = rng.uniform(0, np.pi, size=5)
    stack = H.wigner_d_stack(9, thetas)
    assert len(stack) == 10
    for ell in (0, 3, 9):
        assert stack[ell].shape == (5, 2 * ell + 1, 2 * ell + 1)
        for k, th in enumerate(thetas):
            assert np.abs(stack[ell][k] - H.wigner_d(ell, th)).max() < 1e-13


def test_wigner_d_stack_matches_matrix_exponential_for_all_degrees():
    thetas = np.array([0.0, 1e-9, 0.7, np.pi / 2, 2.3, np.pi - 1e-6, np.pi])
    stack = H.wigner_d_stack(12, thetas)
    for ell in range(13):
        jy = angular_momentum_y(ell)
        for k, theta in enumerate(thetas):
            assert np.abs(stack[ell][k] - expm(-1j * theta * jy).real).max() < 1e-13


# the Euler poles, the Delta angle itself, and just short of the south pole
EDGE_THETAS = (0.0, 1e-9, np.pi / 2, np.pi - 1e-6, np.pi)


@pytest.mark.parametrize("ell", [64, H.L_MAX - 1, H.L_MAX])
def test_wigner_d_orthogonal_and_additive_at_high_degree(ell):
    eye = np.eye(2 * ell + 1)
    for theta in EDGE_THETAS:
        d = H.wigner_d(ell, theta)
        assert np.abs(d @ d.T - eye).max() < 1e-13
        # d(a) d(b) = d(a + b): both halves, and the step from pi/2
        half = H.wigner_d(ell, theta / 2)
        assert np.abs(half @ half - d).max() < 1e-13
        if theta <= np.pi / 2:
            assert np.abs(H.wigner_d(ell, np.pi / 2) @ d - H.wigner_d(ell, theta + np.pi / 2)).max() < 1e-13


def test_wigner_d_at_poles_is_exact_to_rounding():
    # d(0) = I and d(pi)_nm = (-1)^(ell - n) delta_{n,-m}, for every degree
    for ell in (1, 17, 64, H.L_MAX):
        n = np.arange(-ell, ell + 1)
        flip = np.zeros((2 * ell + 1, 2 * ell + 1))
        flip[np.arange(2 * ell + 1), 2 * ell - np.arange(2 * ell + 1)] = (-1.0) ** (ell - n)
        assert np.abs(H.wigner_d(ell, 0.0) - np.eye(2 * ell + 1)).max() < 1e-13
        # np.pi is 1.2e-16 short of pi, which moves d(pi) by up to ~ell ulps
        assert np.abs(H.wigner_d(ell, np.pi) - flip).max() < 1e-13


def test_characteristic_spectrum_matches_per_sample_wigner_D():
    # band 49: the tensor route against sum_k conj(D^ell(X_k)) / K, built
    # degree by degree from Euler angles; the sample includes both Euler
    # poles and a rotation 1e-9 from the north pole
    L = 49
    poles = [
        Rotation.from_euler_zyz((0.3, 0.0, 0.0)).q,
        Rotation.from_euler_zyz((1.1, np.pi, 0.0)).q,
        Rotation.from_euler_zyz((2.0, 1e-9, 0.7)).q,
    ]
    q = np.concatenate([sample_uniform(5, seed=41).quaternions, poles])
    phi = characteristic_spectrum(RotationSample(q), L)
    eulers = [Rotation.from_quaternion(x).to_euler_zyz() for x in q]
    for ell in range(L + 1):
        ref = sum(np.conj(H.wigner_D(ell, e)) for e in eulers) / len(eulers)
        assert np.abs(phi[ell] - ref).max() <= 1e-13


def test_synthesize_at_grid_nodes_matches_synthesize():
    # a strided subset of the nodes of an L = 49 grid, several chunks of points
    mix = ExperimentConfig.default().build_mixture()
    grid = QuadratureGrid(49)
    f = mix.full_spectrum(49)
    sub = (slice(None, None, 7), slice(None, None, 9), slice(None, None, 11))
    ref = synthesize(grid, f)[sub]
    got = synthesize_at(f, grid.points[sub])
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_wigner_sums_memory_is_bounded():
    # K = 20 000 at band 49: per-rotation polar tables alone would be
    # 20 000 * 166 650 entries (27 GB); the tensor routes stay under 64 MB
    mix = ExperimentConfig.default().build_mixture()
    s = sample_mixture(mix, 20_000, seed=43)
    f = mix.full_spectrum(49)
    tracemalloc.start()
    try:
        phi = characteristic_spectrum(s, 49)
        peak_analysis = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        values = synthesize_at(f, s.quaternions)
        peak_synthesis = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(phi[49]).all() and np.isfinite(values).all()
    assert peak_analysis < 64 * 2**20
    assert peak_synthesis < 64 * 2**20


def test_addition_sum_equals_character_of_relative_rotation():
    for ell in (1, 4, 10):
        x = Rotation.from_quaternion(rng.normal(size=4))
        y = Rotation.from_quaternion(rng.normal(size=4))
        val = H.addition_evaluate(ell, x, y)
        chi = H.character(ell, x.inverse().compose(y))
        assert abs(val - chi) < 1e-9


def test_degree_guard():
    with pytest.raises(ValueError):
        H.wigner_d(H.L_MAX + 1, 0.5)
    with pytest.raises(ValueError):
        ExperimentConfig.default().build_mixture().full_spectrum(H.L_MAX + 1)
    with pytest.raises(ValueError):
        H.character(-1, Rotation.identity())
