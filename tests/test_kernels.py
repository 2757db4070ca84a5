import math

import numpy as np
import pytest
from scipy.integrate import quad

from so3density import kernels as K
from so3density.spectra import zonal_convolve, zonal_energy


def test_heat_coefficients():
    a = K.heat_coefficients(0.5, 4)
    ell = np.arange(5.0)
    assert np.allclose(a, np.exp(-ell * (ell + 1) * 0.5), rtol=0, atol=0)
    assert a[0] == 1.0
    assert np.all(np.diff(a) < 0)
    with pytest.raises(ValueError):
        K.heat_coefficients(-0.1, 4)


def test_heat_semigroup():
    # e^{-a r1} e^{-a r2} = e^{-a (r1+r2)} degreewise
    a = zonal_convolve(K.heat_coefficients(0.3, 30), K.heat_coefficients(0.45, 30))
    b = K.heat_coefficients(0.75, 30)
    assert np.abs(a - b).max() < 1e-14


def test_vp_small_order_by_hand():
    # kappa = 3: C(7, 3-ell)/C(7, 3) = [35, 21, 7, 1]/35
    a = K.vp_coefficients(3)
    assert np.allclose(a, [1.0, 0.6, 0.2, 1.0 / 35.0], rtol=1e-14)
    padded = K.vp_coefficients(3, L=6)
    assert np.all(padded[4:] == 0.0)
    assert np.allclose(padded[:4], a)


@pytest.mark.parametrize("kappa", [3, 12, 29, 45])
def test_vp_matches_cosine_power_closed_form(kappa):
    # unit-mass kernel = (2k+1) 4^k / C(2k+1, k) * cos^{2k}(omega/2)
    log_c = math.lgamma(2 * kappa + 2) - math.lgamma(kappa + 1) - math.lgamma(kappa + 2)
    scale = (2 * kappa + 1) * math.exp(2 * kappa * math.log(2.0) - log_c)
    omega = np.linspace(0.0, math.pi, 11)
    vals = K.evaluate(K.vp_coefficients(kappa), omega)
    ref = scale * np.cos(omega / 2.0) ** (2 * kappa)
    assert np.abs(vals - ref).max() < 1e-9 * ref.max()


def test_vp_mass_and_positivity():
    for kappa in (1, 8, 43):
        a = K.vp_coefficients(kappa)
        assert a[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(a > 0)
        assert np.all(np.diff(a) < 0)
        assert a.shape == (kappa + 1,)


def test_characteristic_coefficients():
    a = K.characteristic_coefficients(2, L=5)
    assert np.allclose(a, [1, 1, 1, 0, 0, 0])
    assert K.characteristic_coefficients(4).shape == (5,)


def test_alpha_against_direct_sum():
    rho = 0.3
    ref = sum(
        (2 * l + 1) ** 2 * l * (l + 1) * math.exp(-l * (l + 1) * rho) for l in range(1, 200)
    )
    assert K.alpha(rho) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ValueError):
        K.alpha(0.0)


@pytest.mark.parametrize("rho", [0.03125, 0.25, 1.0])
def test_wavelet_has_unit_norm(rho):
    L = int(math.sqrt(60.0 / rho)) + 8
    psi = K.wavelet_coefficients(rho, L)
    assert psi[0] == 0.0
    assert zonal_energy(psi) == pytest.approx(1.0, abs=1e-10)


def quad_admissibility_residual(ell, rho):
    # adaptive quadrature of the same integrand; the tail past rho + 60/a is
    # below e^{-60} of the value, and stopping there keeps alpha(t) clear of
    # underflow
    a = ell * (ell + 1)
    val, _ = quad(
        lambda t: K.alpha(t) * K.wavelet_coefficients(t, ell)[ell] ** 2,
        rho,
        rho + 60.0 / a,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return abs(val - np.exp(-a * rho))


def test_admissibility_reproduces_heat_coefficient():
    # integral over scales of alpha * psihat^2 equals the heat coefficient;
    # the scale rule agrees with adaptive quadrature
    for rho in (1e-3, 0.25):
        for ell in range(1, 21):
            got = K.admissibility_residual(ell, rho)
            assert abs(got - quad_admissibility_residual(ell, rho)) < 1e-13
    assert K.admissibility_residual(0, 0.25) == 1.0


def test_kernel_spec_round_trip():
    for text, family, param in [
        ("heat:0.0625", "heat", 0.0625),
        ("vp:30", "vp", 30.0),
        ("char:5", "char", 5.0),
    ]:
        spec = K.KernelSpec.from_text(text)
        assert spec.family == family and spec.param == param
        assert K.KernelSpec.from_text(spec.to_text()) == spec
    assert np.allclose(K.KernelSpec("heat", 0.1).coefficients(3), K.heat_coefficients(0.1, 3))
    assert np.allclose(K.KernelSpec("vp", 4).coefficients(8), K.vp_coefficients(4, 8))
    assert np.allclose(K.KernelSpec("char", 2).coefficients(4), K.characteristic_coefficients(2, 4))


def test_kernel_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        K.KernelSpec.from_text("heat")
    with pytest.raises(ValueError):
        K.KernelSpec.from_text("gauss:1")
    with pytest.raises(ValueError):
        K.KernelSpec.from_text("vp:2.5")
    with pytest.raises(ValueError):
        K.KernelSpec.from_text("heat:0")
    with pytest.raises(ValueError):
        K.KernelSpec.from_text("char:abc")
