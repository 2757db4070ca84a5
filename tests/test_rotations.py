import math

import numpy as np
import pytest

from so3density.rotations import (
    Rotation,
    quat_angle,
    quat_canonicalize,
    quat_cos_half_between,
    quat_from_euler_zyz,
    quat_multiply,
    quat_to_euler_zyz,
)

rng = np.random.default_rng(20240917)


def random_rotation():
    return Rotation.from_quaternion(rng.normal(size=4))


def test_canonical_quaternion_hemisphere():
    q = quat_canonicalize(np.array([-0.5, 0.1, -0.3, 0.2]))
    assert q[0] > 0
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    # w == 0 ties break on the first nonzero component
    q = quat_canonicalize(np.array([0.0, -1.0, 0.4, 0.0]))
    assert q[1] > 0


def test_euler_round_trip():
    for _ in range(200):
        r = random_rotation()
        e = r.to_euler_zyz()
        assert 0.0 <= e.theta <= math.pi
        r2 = Rotation.from_euler_zyz(e)
        assert np.abs(r.q - r2.q).max() < 1e-12


def test_euler_round_trip_gimbal():
    for theta in (0.0, math.pi):
        for phi in (0.0, 0.4, -2.0, 3.0):
            r = Rotation.from_euler_zyz((phi, theta, 0.0))
            e = r.to_euler_zyz()
            r2 = Rotation.from_euler_zyz(e)
            assert np.abs(r.q - r2.q).max() < 1e-12


def test_matrix_round_trip():
    for _ in range(50):
        r = random_rotation()
        m = r.to_matrix()
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(m) - 1.0) < 1e-13
        e = quat_to_euler_zyz(r.q)
        m2 = Rotation.from_euler_zyz(e).to_matrix()
        assert np.abs(m - m2).max() < 1e-12


def test_compose_matches_matrix_product():
    for _ in range(50):
        a, b = random_rotation(), random_rotation()
        assert np.abs(a.compose(b).to_matrix() - a.to_matrix() @ b.to_matrix()).max() < 1e-13


def test_inverse():
    # atan2 of the vector norm resolves angles near 0 to rounding
    for _ in range(20):
        a = random_rotation()
        assert a.compose(a.inverse()).angle() < 1e-14
        assert np.abs(a.compose(a.inverse()).q - Rotation.identity().q).max() < 1e-15


def test_axis_angle_round_trip():
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.uniform(1e-6, math.pi - 1e-6)
        r = Rotation.from_axis_angle((axis, ang))
        # q = (cos(ang/2), sin(ang/2) axis), already in the w >= 0 hemisphere
        assert abs(r.q[0] - math.cos(ang / 2)) < 1e-15
        assert np.abs(r.q[1:] - math.sin(ang / 2) * axis).max() < 1e-15
        assert abs(r.angle() - ang) < 1e-12


def test_axis_angle_identity_and_errors():
    r = Rotation.from_axis_angle(((0.0, 0.0, 1.0), 0.0))
    assert r == Rotation.identity()
    assert r.angle() == 0.0
    with pytest.raises(ValueError):
        Rotation.from_axis_angle(((0.0, 0.0, 0.0), 0.3))
    with pytest.raises(ValueError):
        Rotation.from_euler_zyz((0.0, -0.1, 0.0))
    with pytest.raises(ValueError):
        Rotation.from_quaternion([0.0, 0.0, 0.0, 0.0])


def test_angle_closed_form():
    # omega = 2 arccos |cos(theta/2) cos((phi+psi)/2)| in Euler angles
    for _ in range(100):
        phi = rng.uniform(0, 2 * math.pi)
        theta = rng.uniform(0, math.pi)
        psi = rng.uniform(0, 2 * math.pi)
        r = Rotation.from_euler_zyz((phi, theta, psi))
        ref = 2 * math.acos(min(1.0, abs(math.cos(theta / 2) * math.cos((phi + psi) / 2))))
        assert abs(r.angle() - ref) < 1e-10


def distance(a, b):
    # the bi-invariant metric: angle of the relative rotation a^-1 b
    return 2.0 * math.acos(float(quat_cos_half_between(a.q, b.q)))


def test_distance_bi_invariance():
    for _ in range(50):
        a, b, g = random_rotation(), random_rotation(), random_rotation()
        d = distance(a, b)
        assert abs(distance(g.compose(a), g.compose(b)) - d) < 1e-10
        assert abs(distance(a.compose(g), b.compose(g)) - d) < 1e-10


def test_distance_metric_axioms():
    for _ in range(300):
        a, b, c = random_rotation(), random_rotation(), random_rotation()
        dab, dbc, dac = distance(a, b), distance(b, c), distance(a, c)
        assert dab >= 0
        assert abs(dab - distance(b, a)) < 1e-12
        assert dac <= dab + dbc + 1e-12
    assert distance(Rotation.identity(), Rotation.identity()) == 0.0


def test_cos_half_between_matches_relative_angle():
    p = np.array([random_rotation().q for _ in range(64)])
    q = np.array([random_rotation().q for _ in range(64)])
    ch = quat_cos_half_between(p, q)
    for k in range(64):
        rel = Rotation.from_quaternion(p[k]).inverse().compose(
            Rotation.from_quaternion(q[k])
        )
        assert abs(ch[k] - math.cos(rel.angle() / 2)) < 1e-12


def test_quat_array_helpers_match_class():
    e = (0.3, 1.2, 4.0)
    q = quat_canonicalize(np.asarray(quat_from_euler_zyz(*e)))
    assert np.abs(q - Rotation.from_euler_zyz(e).q).max() < 1e-15
    a, b = random_rotation(), random_rotation()
    q2 = quat_multiply(a.q, b.q)
    assert np.abs(quat_canonicalize(np.asarray(q2)) - a.compose(b).q).max() < 1e-15
    assert abs(quat_angle(a.q) - a.angle()) < 1e-15
