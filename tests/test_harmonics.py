import numpy as np
import pytest
from scipy.linalg import expm

from so3density import harmonics as H
from so3density.rotations import Rotation

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
        H.character(-1, Rotation.identity())
