import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_procrustes, seam_pair
from warpalign import (
    Curve,
    Rotation,
    Srvf,
    apply_seed,
    arc_length,
    normalize_length,
    optimal_rotation,
    rotate,
    shape_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
)
from warpalign.fixtures import bean_curve
from warpalign.shapeops import _procrustes
from warpalign.srvf import _trapezoid_weights, l2_norm


def planar_rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def random_shape(rng, m=80, dim=2) -> Srvf:
    return unit_normalize(Srvf(uniform_grid(m), rng.normal(size=(m, dim))))


class TestNormalizeLength:
    def test_unit_segment_unchanged(self):
        t = uniform_grid(10)
        c = Curve(t, np.column_stack((t, np.zeros_like(t))))
        out = normalize_length(c)
        assert np.allclose(out.points, c.points, atol=1e-15)

    def test_circle_scaled(self):
        t = uniform_grid(400)
        r = 2.0 / (2 * np.pi)  # circumference 2
        pts = r * np.column_stack((np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
        pts[-1] = pts[0]
        out = normalize_length(Curve(t, pts, "closed"))
        assert abs(arc_length(out) - 1.0) < 1e-9

    def test_srvf_norm_after_normalization(self):
        t = uniform_grid(300)
        pts = np.column_stack((np.cos(np.pi * t), np.sin(np.pi * t) + t))
        q = to_srvf(normalize_length(Curve(t, pts)))
        norm = np.sqrt(np.trapezoid(np.sum(q.values ** 2, axis=1), t))
        assert abs(norm - 1.0) < 1e-3

    def test_degenerate_curve_rejected(self):
        c = Curve(uniform_grid(5), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            normalize_length(c)


class TestOptimalRotation:
    def test_same_input_gives_identity(self):
        q = random_shape(np.random.default_rng(0))
        rot = optimal_rotation(q, q)
        assert np.allclose(rot.matrix, np.eye(2), atol=1e-10)

    def test_recovers_known_rotation(self):
        q1 = random_shape(np.random.default_rng(1))
        r = planar_rotation(np.pi / 6)
        q2 = Srvf(q1.grid, q1.values @ r, q1.topology)  # values @ R = R^T applied
        rot = optimal_rotation(q1, q2)
        assert np.max(np.abs(rot.matrix - r)) < 1e-8

    def test_rotation_reduces_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q1, q2 = random_shape(rng), random_shape(rng)
            rot = optimal_rotation(q1, q2)
            before = np.linalg.norm(q1.values - q2.values)
            after = np.linalg.norm(q1.values - rot.apply(q2.values))
            assert after <= before + 1e-12

    def test_output_in_special_orthogonal_group(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            for _ in range(10):
                q1 = random_shape(rng, dim=dim)
                q2 = random_shape(rng, dim=dim)
                rot = optimal_rotation(q1, q2)
                m = rot.matrix
                assert np.allclose(m.T @ m, np.eye(dim), atol=1e-10)
                assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_one_is_identity(self):
        g = uniform_grid(50)
        q1 = Srvf(g, np.ones((50, 1)))
        q2 = Srvf(g, -np.ones((50, 1)))
        rot = optimal_rotation(q1, q2)
        assert np.array_equal(rot.matrix, np.eye(1))

    def test_zero_cross_covariance_gives_identity(self):
        q2 = random_shape(np.random.default_rng(4))
        q1 = Srvf(q2.grid, np.zeros_like(q2.values))
        assert np.array_equal(optimal_rotation(q1, q2).matrix, np.eye(2))

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            Rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))  # det -1
        with pytest.raises(ValueError):
            Rotation(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not orthogonal
        with pytest.raises(ValueError, match="must be square"):
            Rotation(np.eye(3)[:2])


@st.composite
def procrustes_inputs(draw, dim):
    """(v1, v2, trapezoid weights) at value scales from 1e-8 to 1e8.  Half
    the draws make v1 the mirror image of v2, so the cross-covariance has
    det < 0 and the SVD solution flips a column."""
    m = draw(st.integers(max(dim, 2), 8))

    def values():
        scale = 10.0 ** draw(st.integers(-8, 8))
        flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * dim, max_size=m * dim))
        return scale * np.array(flat).reshape(m, dim)

    v2 = values()
    if draw(st.booleans()):
        v1 = v2 * np.r_[np.ones(dim - 1), -1.0] * 10.0 ** draw(st.integers(-8, 8))
    else:
        v1 = values()
    return v1, v2, _trapezoid_weights(uniform_grid(m))


class TestProcrustesKernel:
    """``_procrustes`` against the SVD-and-determinant ``reference_procrustes``."""

    @settings(max_examples=300, deadline=None)
    @given(procrustes_inputs(2))
    def test_planar_closed_form_matches_svd(self, inputs):
        v1, v2, w = inputs
        a = (v1 * w[:, None]).T @ v2
        rot, ref = np.array(_procrustes(a.tolist())), reference_procrustes(v1, v2, w)
        assert rot[0, 0] == rot[1, 1] and rot[0, 1] == -rot[1, 0]
        assert abs(rot[0, 0] ** 2 + rot[1, 0] ** 2 - 1.0) <= 4e-16
        # tr(O A^T) is no lower than at the reference's O
        assert np.sum(rot * a) >= np.sum(ref * a) - 1e-14 * np.abs(a).sum()
        # when a00 + a11 and a10 - a01 nearly cancel, every rotation is
        # nearly optimal and neither answer is fixed to 1e-12
        assume(math.hypot(a[0, 0] + a[1, 1], a[1, 0] - a[0, 1]) > 1e-3 * np.abs(a).sum())
        assert np.max(np.abs(rot - ref)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(procrustes_inputs(3))
    def test_spatial_matches_svd_bit_for_bit(self, inputs):
        v1, v2, w = inputs
        assert np.array_equal(_procrustes(((v1 * w[:, None]).T @ v2).tolist()),
                              reference_procrustes(v1, v2, w))

    @pytest.mark.parametrize("dim", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_output_in_special_orthogonal_group(self, dim, data):
        # optimal_rotation and the annealer wrap this output in a Rotation
        # without its constructor's orthogonality and determinant checks
        v1, v2, w = data.draw(procrustes_inputs(dim))
        rot = np.array(_procrustes(((v1 * w[:, None]).T @ v2).tolist()))
        assert rot.shape == (dim, dim)
        assert np.allclose(rot.T @ rot, np.eye(dim), rtol=0.0, atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def array_procrustes(a: np.ndarray) -> np.ndarray:
    """``_procrustes`` as an ndarray kernel: the same arithmetic on a
    (d, d) array, returning an array, as the kernel was before it read
    and returned Python rows."""
    d = a.shape[0]
    if d == 1:
        return np.eye(1)
    if d == 2:
        (a00, a01), (a10, a11) = a.tolist()
        c, s = a00 + a11, a10 - a01
        norm = math.hypot(c, s)
        if norm == 0.0:
            return np.eye(2)
        c, s = c / norm, s / norm
        return np.array([[c, -s], [s, c]])
    u, _, vt = np.linalg.svd(a)
    r = u @ vt
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    det = (r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20)
           + r02 * (r10 * r21 - r11 * r20))
    if det < 0.0:
        u[:, -1] *= -1.0
        r = u @ vt
    return r


def same_bits(rows, array: np.ndarray) -> bool:
    got = np.array(rows)
    return (got.shape == array.shape and np.array_equal(got, array)
            and np.array_equal(np.signbit(got), np.signbit(array)))


class TestProcrustesRows:
    """``_procrustes`` reads the cross-covariance as Python rows and returns
    rows, with the bits of the ndarray kernel."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_equal_array_kernel(self, dim, data):
        v1, v2, w = data.draw(procrustes_inputs(dim))
        a = (v1 * w[:, None]).T @ v2
        rows = _procrustes(a.tolist())
        assert type(rows) is list and all(type(r) is list for r in rows)
        assert same_bits(rows, array_procrustes(a))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_cross_covariance_gives_identity(self, dim):
        zero = np.zeros((dim, dim))
        assert same_bits(_procrustes(zero.tolist()), np.eye(dim))
        assert same_bits(_procrustes(zero.tolist()), array_procrustes(zero))

    def test_spatial_reflection_flip(self):
        # a mirror image: U V^T of the SVD has determinant -1, so the
        # kernel must flip U's last column to stay in SO(3)
        a = np.diag([3.0, 2.0, -1.0]) @ planar_rotation_3d(0.4)
        u, _, vt = np.linalg.svd(a)
        assert np.linalg.det(u @ vt) < 0.0
        rot = _procrustes(a.tolist())
        assert same_bits(rot, array_procrustes(a))
        assert np.linalg.det(np.array(rot)) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_rotation_matrix_is_read_only(self):
        q1 = random_shape(np.random.default_rng(0), dim=3)
        q2 = random_shape(np.random.default_rng(1), dim=3)
        rot = optimal_rotation(q1, q2)
        assert not rot.matrix.flags.writeable
        with pytest.raises(ValueError):
            rot.matrix[0, 0] = 2.0


def planar_rotation_3d(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the z axis."""
    out = np.eye(3)
    out[:2, :2] = planar_rotation(angle)
    return out


class TestApplySeed:
    def closed_shape(self, m=101):
        return unit_normalize(to_srvf(normalize_length(bean_curve(m))))

    def test_zero_shift_is_noop(self):
        q = self.closed_shape()
        out = apply_seed(q, 0.0)
        assert np.array_equal(out.values, q.values)

    def test_half_shift_twice_is_noop(self):
        # 101 grid points = 100 distinct cyclic samples, so s=0.5 is exact
        q = self.closed_shape(101)
        out = apply_seed(apply_seed(q, 0.5), 0.5)
        assert np.array_equal(out.values, q.values)

    def test_shift_changes_asymmetric_shape(self):
        q = self.closed_shape()
        assert shape_dist(q, apply_seed(q, 0.23)) > 0.05

    def test_norm_preserved_exactly(self):
        # the shift permutes the sampled values, so the norm is exact up to
        # summation order
        q = self.closed_shape()
        for s in (0.1, 0.37, 0.9):
            out = apply_seed(q, s)
            assert np.array_equal(np.sort(out.values[:-1], axis=0),
                                  np.sort(q.values[:-1], axis=0))
            before = np.trapezoid(np.sum(q.values ** 2, axis=1), q.grid)
            after = np.trapezoid(np.sum(out.values ** 2, axis=1), q.grid)
            assert abs(before - after) < 1e-14

    @pytest.mark.parametrize("which", [0, 1])
    def test_open_seam_returns_for_every_seed(self, which):
        # a warped closed SRVF's last sample is not its first: every seed
        # reads it on the circle, its last sample rebuilt from its first, and
        # the result is a shape only if that kept the unit norm
        q = seam_pair()[which]
        n = q.grid.size - 1
        assert not np.array_equal(q.values[0], q.values[-1])
        circle = np.vstack((q.values[:-1], q.values[:-1]))
        for k in range(n):
            out = apply_seed(q, k / n)
            assert np.array_equal(out.values, circle[k:k + n + 1])
            assert out.is_shape == (abs(l2_norm(out) - 1.0) <= 1e-6)
            # once on the circle, shifts compose
            back = apply_seed(out, (n - k) % n / n)
            assert np.array_equal(back.values, apply_seed(q, 0.0).values)

    def test_inverse_shift(self):
        q = self.closed_shape()
        for s in (0.13, 0.5, 0.88):
            out = apply_seed(apply_seed(q, s), (1.0 - s) % 1.0)
            assert np.array_equal(out.values, q.values)

    def test_open_curve_rejected(self):
        g = uniform_grid(50)
        q = Srvf(g, np.ones((50, 2)))
        with pytest.raises(ValueError):
            apply_seed(q, 0.5)

    @pytest.mark.parametrize("s", [-0.1, 1.0])
    def test_seed_outside_unit_interval_rejected(self, s):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 1\)"):
            apply_seed(self.closed_shape(), s)

    def test_rotate_preserves_shape_flag(self):
        q = self.closed_shape()
        rot = Rotation(planar_rotation(0.4))
        out = rotate(q, rot)
        assert out.is_shape
        assert abs(np.trapezoid(np.sum(out.values ** 2, axis=1), q.grid) - 1.0) < 1e-9
