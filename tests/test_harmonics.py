import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from elastisph import harmonics
from elastisph._blas import product
from elastisph.harmonics import (
    Family,
    ModeIndex,
    VshExpansion,
    eval_VWX,
    eval_Y,
    norm_sq,
    norm_sq_table,
    project,
    radial_profile_divergence,
    radial_profile_laplacian,
    reconstruct,
    sh_degree_order,
    sh_index,
    surface_gradient_Y,
    traction_of_radial_field,
    vsh_basis,
    weighted_basis,
)
from elastisph.materials import LameParams
from elastisph.presets import three_sphere_config
from elastisph.quadrature import SphereFrame, rule_for_degree

RNG = np.random.default_rng(42)
SQPI = np.sqrt(np.pi)


def unit_vectors(n, rng=RNG):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# explicit low-degree table used as the golden fixture
def golden_Y(ell, m, s):
    x, y, z = s
    table = {
        (0, 0): 0.5 / SQPI,
        (1, -1): np.sqrt(3 / (4 * np.pi)) * y,
        (1, 0): np.sqrt(3 / (4 * np.pi)) * z,
        (1, 1): np.sqrt(3 / (4 * np.pi)) * x,
        (2, -2): 0.5 * np.sqrt(15 / np.pi) * x * y,
        (2, -1): 0.5 * np.sqrt(15 / np.pi) * y * z,
        (2, 0): 0.25 * np.sqrt(5 / np.pi) * (-x * x - y * y + 2 * z * z),
        (2, 1): 0.5 * np.sqrt(15 / np.pi) * x * z,
        (2, 2): 0.25 * np.sqrt(15 / np.pi) * (x * x - y * y),
    }
    return table[(ell, m)]


def golden_gradY(ell, m, s):
    x, y, z = s
    table = {
        (1, -1): np.sqrt(3 / (4 * np.pi)) * (np.array([0, 1, 0.0]) - y * s),
        (1, 0): np.sqrt(3 / (4 * np.pi)) * (np.array([0, 0, 1.0]) - z * s),
        (1, 1): np.sqrt(3 / (4 * np.pi)) * (np.array([1, 0, 0.0]) - x * s),
        (2, -2): 0.5 * np.sqrt(15 / np.pi) * (np.array([y, x, 0.0]) - 2 * x * y * s),
        (2, -1): 0.5 * np.sqrt(15 / np.pi) * (np.array([0.0, z, y]) - 2 * y * z * s),
        (2, 0): 0.5 * np.sqrt(5 / np.pi) * (np.array([-x, -y, 2 * z]) - (-x * x - y * y + 2 * z * z) * s),
        (2, 1): 0.5 * np.sqrt(15 / np.pi) * (np.array([z, 0.0, x]) - 2 * x * z * s),
        (2, 2): 0.5 * np.sqrt(15 / np.pi) * (np.array([x, -y, 0.0]) - (x * x - y * y) * s),
    }
    return table[(ell, m)]


class TestScalar:
    def test_golden_values(self):
        for s in unit_vectors(20):
            for ell in range(3):
                for m in range(-ell, ell + 1):
                    assert_allclose(eval_Y(ell, m, s), golden_Y(ell, m, s), atol=1e-12)

    def test_monopole_constant(self):
        assert_allclose(eval_Y(0, 0, np.array([0.3, -0.8, 0.52])
                               / np.linalg.norm([0.3, -0.8, 0.52])), 0.5 / SQPI)

    def test_y2m2_zero_on_x_axis(self):
        assert eval_Y(2, -2, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            eval_Y(1, 2, np.array([0.0, 0.0, 1.0]))

    def test_non_unit_point(self):
        with pytest.raises(ValueError):
            eval_Y(1, 0, np.array([0.0, 0.0, 1.1]))


class TestSurfaceGradient:
    def test_golden_values(self):
        for s in unit_vectors(10):
            for ell in (1, 2):
                for m in range(-ell, ell + 1):
                    assert_allclose(surface_gradient_Y(ell, m, s),
                                    golden_gradY(ell, m, s), atol=1e-12)

    def test_example_y11_at_xaxis(self):
        g = surface_gradient_Y(1, 1, np.array([1.0, 0.0, 0.0]))
        assert_allclose(g, np.zeros(3), atol=1e-14)

    def test_example_y10_at_xaxis(self):
        g = surface_gradient_Y(1, 0, np.array([1.0, 0.0, 0.0]))
        assert_allclose(g, np.sqrt(3 / (4 * np.pi)) * np.array([0, 0, 1.0]), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    def test_tangency(self, ell, mseed, sseed):
        m = mseed % (2 * ell + 1) - ell
        s = unit_vectors(1, np.random.default_rng(sseed))[0]
        g = surface_gradient_Y(ell, m, s)
        assert abs(float(g @ s)) < 1e-12 * max(1.0, np.linalg.norm(g))


class TestVectorFamilies:
    def test_golden_v00(self):
        for s in unit_vectors(5):
            V, W, X = eval_VWX(0, 0, s)
            assert_allclose(V, -0.5 / SQPI * s, atol=1e-14)
            assert_allclose(W, 0.0, atol=1e-15)
            assert_allclose(X, 0.0, atol=1e-15)

    def test_golden_x10(self):
        _, _, X = eval_VWX(1, 0, np.array([1.0, 0.0, 0.0]))
        assert_allclose(X, np.sqrt(3 / (4 * np.pi)) * np.array([0, -1.0, 0]), atol=1e-14)

    def test_golden_w11(self):
        _, W, _ = eval_VWX(1, 1, np.array([0.0, 0.0, 1.0]))
        assert_allclose(W, np.sqrt(3 / (4 * np.pi)) * np.array([1.0, 0, 0]), atol=1e-14)

    def test_appendix_table_all_entries(self):
        # V/W/X up to degree 2 against the explicit polynomial forms
        for s in unit_vectors(20):
            x, y, z = s
            c15 = 0.5 * np.sqrt(15 / np.pi)
            c5 = 0.5 * np.sqrt(5 / np.pi)
            c3 = np.sqrt(3 / (4 * np.pi))
            W_table = {
                (1, -1): c3 * np.array([0, 1.0, 0]),
                (1, 0): c3 * np.array([0, 0, 1.0]),
                (1, 1): c3 * np.array([1.0, 0, 0]),
                (2, -2): c15 * np.array([y, x, 0]),
                (2, -1): c15 * np.array([0, z, y]),
                (2, 0): c5 * np.array([-x, -y, 2 * z]),
                (2, 1): c15 * np.array([z, 0, x]),
                (2, 2): c15 * np.array([x, -y, 0]),
            }
            X_table = {
                (1, -1): c3 * np.array([-z, 0, x]),
                (1, 0): c3 * np.array([y, -x, 0]),
                (1, 1): c3 * np.array([0, z, -y]),
                (2, -2): c15 * np.array([-x * z, y * z, x * x - y * y]),
                (2, -1): c15 * np.array([y * y - z * z, -x * y, x * z]),
                (2, 0): c5 * np.array([3 * y * z, -3 * x * z, 0]),
                (2, 1): c15 * np.array([x * y, z * z - x * x, -y * z]),
                (2, 2): c15 * np.array([y * z, x * z, -2 * x * y]),
            }
            for (ell, m), w_exp in W_table.items():
                V, W, X = eval_VWX(ell, m, s)
                v_exp = golden_gradY(ell, m, s) - (ell + 1) * golden_Y(ell, m, s) * s
                assert_allclose(V, v_exp, atol=1e-12)
                assert_allclose(W, w_exp, atol=1e-12)
                assert_allclose(X, X_table[(ell, m)], atol=1e-12)

    def test_pointwise_radial_identities(self):
        s = unit_vectors(40)
        basis = vsh_basis(s, 10)
        for p in range(121):
            ell, _ = sh_degree_order(p)
            assert_allclose(np.einsum("tc,tc->t", basis.W[p], s), ell * basis.Y[p], atol=1e-12)
            assert_allclose(np.einsum("tc,tc->t", basis.V[p], s), -(ell + 1) * basis.Y[p], atol=1e-12)
            assert_allclose(np.einsum("tc,tc->t", basis.X[p], s), 0.0, atol=1e-12)

    def test_gradient_and_radial_reconstruction(self):
        # grad_s Y = (l V + (l+1) W)/(2l+1) and Y n = (W - V)/(2l+1), l >= 1
        s = unit_vectors(20)
        basis = vsh_basis(s, 8)
        _, grad = __import__("elastisph.harmonics", fromlist=["scalar_basis"]).scalar_basis(s, 8)
        for p in range(1, 81):
            ell, _ = sh_degree_order(p)
            lhs = (ell * basis.V[p] + (ell + 1) * basis.W[p]) / (2 * ell + 1)
            assert_allclose(lhs, grad[p], atol=1e-12)
            rn = (basis.W[p] - basis.V[p]) / (2 * ell + 1)
            assert_allclose(rn, basis.Y[p][:, None] * s, atol=1e-12)

    @pytest.mark.parametrize("pattern", range(8))
    def test_reflection_signs(self, pattern):
        # F(R s) = h R F(s) for each family, R flipping the axes of the pattern's bits
        flip = np.array([-1.0 if pattern >> axis & 1 else 1.0 for axis in range(3)])
        s = unit_vectors(30)
        basis, reflected = vsh_basis(s, 12), vsh_basis(s * flip, 12)
        h = harmonics.reflection_signs(12)[pattern].reshape(-1, 3)
        for family in Family:
            assert_allclose(reflected.family(family), h[:, family, None, None] * basis.family(family) * flip,
                            rtol=0, atol=1e-12)


class TestOrthogonality:
    def test_gram_matrix(self):
        rule = rule_for_degree(16)
        basis = vsh_basis(rule.points, 8)
        fams = [basis.V, basis.W, basis.X]
        for ka in range(3):
            for kb in range(3):
                gram = np.einsum("ptc,qtc,t->pq", fams[ka], fams[kb], rule.weights)
                expected = np.zeros_like(gram)
                if ka == kb:
                    for p in range(gram.shape[0]):
                        ell, _ = sh_degree_order(p)
                        expected[p, p] = norm_sq(ell, Family(ka))
                assert np.max(np.abs(gram - expected)) < 1e-10


    def test_norm_table_matches_per_mode_norms(self):
        table = norm_sq_table(6)
        expected = [[norm_sq(sh_degree_order(p)[0], k) for k in Family] for p in range(49)]
        assert np.array_equal(table, np.array(expected))


class TestDerivativeIdentities:
    def central_div(self, field, x, h=1e-4):
        out = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            out += (field(x + e)[j] - field(x - e)[j]) / (2 * h)
        return out

    def make_field(self, family, ell, m, h):
        def field(x):
            r = np.linalg.norm(x)
            vecs = eval_VWX(ell, m, x / r)
            return h(r) * vecs[int(family)]
        return field

    def test_divergence_closed_form(self):
        rng = np.random.default_rng(3)
        for family, ell, m in [(Family.V, 1, 0), (Family.V, 3, 2), (Family.W, 2, -1),
                               (Family.W, 4, 3), (Family.X, 2, 1)]:
            x = rng.normal(size=3) * 0.8 + np.array([1.0, 0, 0])
            h = lambda r: r ** 2 + 0.5 * r
            h_r = lambda r: 2 * r + 0.5
            closed = radial_profile_divergence(family, ell, m, h, h_r, x)
            fd = self.central_div(self.make_field(family, ell, m, h), x)
            assert closed == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_divergence_toroidal_exactly_zero(self):
        val = radial_profile_divergence(Family.X, 3, 1, lambda r: r ** 2, lambda r: 2 * r,
                                        np.array([0.3, 0.4, 0.5]))
        assert val == 0.0

    def test_divergence_example_v0(self):
        x = np.array([0.0, 0.0, 1.0])
        val = radial_profile_divergence(Family.V, 0, 0, lambda r: r, lambda r: 1.0, x)
        assert val == pytest.approx(-3.0 / (2.0 * SQPI), rel=1e-14)

    def test_divergence_example_w1(self):
        val = radial_profile_divergence(Family.W, 1, 0, lambda r: 1.0, lambda r: 0.0,
                                        np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_divergence_origin_error(self):
        with pytest.raises(ValueError):
            radial_profile_divergence(Family.V, 1, 0, lambda r: r, lambda r: 1.0,
                                      np.zeros(3))

    def test_laplacian_closed_form(self):
        # profile chosen so the Laplacian does not vanish for any family
        rng = np.random.default_rng(4)
        h = lambda r: r ** 2 + 0.5 * r
        h_r = lambda r: 2 * r + 0.5
        h_rr = lambda r: 2.0
        for family, ell, m in [(Family.V, 2, 1), (Family.W, 3, -2), (Family.X, 1, 0)]:
            x = rng.normal(size=3) + np.array([0.0, 0, 1.5])
            closed = radial_profile_laplacian(family, ell, m, h, h_r, h_rr, x)
            field = self.make_field(family, ell, m, h)
            step = 1e-4
            fd = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                fd += (field(x + e) - 2 * field(x) + field(x - e)) / step ** 2
            assert_allclose(closed, fd, rtol=1e-5, atol=1e-5)


class TestTractionOfRadialField:
    def test_toroidal_rigid_rotation(self):
        # h = r gives a rigid rotation at l = 1: zero traction
        _, _, c_x = traction_of_radial_field((0, 0, 0, 0, 1.0, 1.0), 1, LameParams(1.0, 1.0))
        assert c_x == pytest.approx(0.0, abs=1e-15)

    def test_spheroidal_example(self):
        # f = r^2 at l = 1, mu = lam = 1
        c_v, _, _ = traction_of_radial_field((1.0, 2.0, 0, 0, 0, 0), 1, LameParams(1.0, 1.0))
        assert c_v == pytest.approx(17.0 / 3.0, rel=1e-14)

    def test_toroidal_decaying(self):
        # h = r^(-l-1) at l = 1: c_X = mu (-2 - 1)
        _, _, c_x = traction_of_radial_field((0, 0, 0, 0, 1.0, -2.0), 1, LameParams(1.0, 0.5))
        assert c_x == pytest.approx(-3.0, rel=1e-14)


class TestModeIndex:
    def test_degenerate(self):
        assert ModeIndex(0, 0, Family.W).degenerate
        assert ModeIndex(0, 0, Family.X).degenerate
        assert not ModeIndex(0, 0, Family.V).degenerate
        assert not ModeIndex(1, 0, Family.W).degenerate

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 2 ** 30), st.sampled_from(list(Family)))
    def test_offset_roundtrip(self, ell, mseed, family):
        m = mseed % (2 * ell + 1) - ell
        offset = ModeIndex(ell, m, family).flat_offset
        assert offset == 3 * sh_index(ell, m) + int(family)
        p, k = divmod(offset, 3)
        assert sh_degree_order(p) == (ell, m)
        assert Family(k) == family

    def test_invalid(self):
        with pytest.raises(ValueError):
            ModeIndex(2, 3, Family.V)


class TestProjection:
    def test_radial_monopole(self):
        frame = SphereFrame((0.4, -0.2, 0.7), 1.3)
        fn = lambda pts: -(pts - frame.center_array) / frame.radius
        exp = project(fn, frame, 4, rule_for_degree(8))
        assert exp.get(0, 0, Family.V) == pytest.approx(2 * SQPI, rel=1e-12)
        mask = np.ones_like(exp.coeffs, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(exp.coeffs[mask.reshape(exp.coeffs.shape)])) < 1e-12

    def test_reproduces_basis_field(self):
        frame = SphereFrame((0.0, 0.0, 0.0), 2.0)
        def fn(pts):
            d = (pts - frame.center_array) / frame.radius
            basis = vsh_basis(d, 1)
            return basis.W[sh_index(1, 1)]
        exp = project(fn, frame, 3, rule_for_degree(6))
        assert exp.get(1, 1, Family.W) == pytest.approx(1.0, rel=1e-13)
        ref = np.zeros_like(exp.coeffs)
        ref[sh_index(1, 1), 1] = 1.0
        assert np.max(np.abs(exp.coeffs - ref)) < 1e-12

    def test_degenerate_modes_exact_zero(self):
        frame = SphereFrame((0.0, 0.0, 0.0), 1.0)
        fn = lambda pts: np.sin(pts)
        exp = project(fn, frame, 3, rule_for_degree(12))
        assert exp.coeffs[0, 1] == 0.0
        assert exp.coeffs[0, 2] == 0.0

    def test_weighted_basis_cached_read_only(self):
        rule = rule_for_degree(6)
        rows = weighted_basis(rule, 3)
        assert weighted_basis(rule, 3) is rows
        assert not rows.flags.writeable
        basis = vsh_basis(rule.points, 3)
        t = 5
        assert_allclose(rows[3 * 4 + 2].reshape(-1, 3)[t], rule.weights[t] * basis.X[4, t],
                        rtol=1e-15)

    def test_blocked_projection_matches_whole_basis(self, monkeypatch):
        # above the cache bound the moments accumulate over blocks of nodes;
        # blocks change only the summation order
        frame = SphereFrame((0.3, 0.0, -0.2), 1.5)
        fn = lambda pts: np.sin(2.0 * pts) + pts[:, [1, 2, 0]] ** 3
        rule = rule_for_degree(24)
        whole = project(fn, frame, 12, rule)
        monkeypatch.setattr(harmonics, "_CACHED_BASIS_BYTES", 0)
        monkeypatch.setattr(harmonics, "_PROJECT_BLOCK_BYTES", 2**18)  # 48 nodes of 230
        blocked = project(fn, frame, 12, rule)
        assert_allclose(blocked.coeffs, whole.coeffs, rtol=0,
                        atol=1e-14 * np.abs(whole.coeffs).max())

    @pytest.mark.parametrize("degree", [12, 20, 32])
    def test_scalar_route_matches_weighted_rows(self, degree):
        # above the cache bound the moments come from the scalar basis; they
        # are weighted_basis's moments up to rounding, on the three-sphere
        # data and on a field of random coefficients
        rule = rule_for_degree(2 * degree + 2)
        assert 9 * (degree + 1) ** 2 * rule.size * 8 > harmonics._CACHED_BASIS_BYTES
        coeffs = np.random.default_rng(degree).normal(size=((degree + 1) ** 2, 3))
        coeffs[0, 1:] = 0.0
        random = VshExpansion(0, degree, coeffs)
        data = three_sphere_config(degree).spheres[1]
        fields = [(data.data, data.frame),
                  (lambda pts: reconstruct(random, pts - np.array([0.2, 0.0, 0.0])), SphereFrame((0.2, 0.0, 0.0), 1.0))]
        projected = harmonics.project_fields(fields, degree, rule)
        rows = harmonics.weighted_rows(rule.points, rule.weights, degree)
        norms = harmonics.norm_sq_table(degree)
        for (fn, frame), expansion in zip(fields, projected):
            moments = (rows @ fn(frame.surface_points(rule)).reshape(-1)).reshape(-1, 3)
            expected = np.divide(moments, norms, out=np.zeros_like(moments), where=norms > 0.0)
            assert np.abs(expansion.coeffs - expected).max() <= 1e-14 * np.abs(expected).max()
            assert np.all(expansion.coeffs[0, 1:] == 0.0)
        assert np.abs(projected[1].coeffs - coeffs).max() < 1e-12

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_cached_branch_at_the_assembly_rule(self, degree):
        # up to degree 8 the assembly rule's weighted basis is cached, and the
        # moments are its products with the data, bitwise
        rule = three_sphere_config(degree).rule()
        assert 9 * (degree + 1) ** 2 * rule.size * 8 <= harmonics._CACHED_BASIS_BYTES
        assert weighted_basis(rule, degree) is weighted_basis(rule, degree)
        data = three_sphere_config(degree).spheres[1]
        moments = product(weighted_basis(rule, degree), data.data(data.frame.surface_points(rule)).reshape(-1))
        moments = moments.reshape(-1, 3)
        norms = harmonics.norm_sq_table(degree)
        expected = np.divide(moments, norms, out=np.zeros_like(moments), where=norms > 0.0)
        assert np.array_equal(project(data.data, data.frame, degree, rule).coeffs, expected)

    def test_rule_too_weak_rejected(self):
        frame = SphereFrame((0.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="below the projection requirement"):
            project(lambda p: p, frame, 8, rule_for_degree(9))

    def test_roundtrip_identity_on_vn(self):
        # project(reconstruct(c)) == c at rule degree exactly 2N
        rng = np.random.default_rng(11)
        N = 6
        coeffs = rng.normal(size=((N + 1) ** 2, 3))
        coeffs[0, 1] = coeffs[0, 2] = 0.0
        exp = VshExpansion(0, N, coeffs)
        frame = SphereFrame((0.0, 0.0, 0.0), 1.0)
        fn = lambda pts: reconstruct(exp, pts)
        back = project(fn, frame, N, rule_for_degree(2 * N))
        assert np.max(np.abs(back.coeffs - coeffs)) < 1e-12

    def test_flat_roundtrip(self):
        exp = VshExpansion.zeros(3, 2)
        exp.set(2, -1, Family.X, 0.7)
        again = VshExpansion.from_flat(3, 2, exp.flat)
        assert again.get(2, -1, Family.X) == 0.7

    def test_degenerate_set_rejected(self):
        exp = VshExpansion.zeros(0, 2)
        with pytest.raises(ValueError):
            exp.set(0, 0, Family.W, 1.0)


_CYCLIC = [(1, 2, 0), (2, 0, 1)]


class TestPermutationRotation:
    @pytest.mark.parametrize("axes", _CYCLIC)
    def test_orthogonal(self, axes):
        for degree in (1, 4, 8, 20):
            R = harmonics.permutation_rotation(axes, degree, rule_for_degree(2 * degree))
            assert len(R) == degree + 1
            for ell, D in enumerate(R):
                assert D.shape == (2 * ell + 1,) * 2 and not D.flags.writeable
                assert np.abs(D @ D.T - np.eye(2 * ell + 1)).max() < 1e-14

    @pytest.mark.parametrize("axes", _CYCLIC)
    def test_rotates_the_vector_basis(self, axes):
        # F_q(P s) = P sum_p D_qp F_p(s) for V, W and X, (P v)_a = v[axes[a]]
        degree = 12
        R = harmonics.permutation_rotation(axes, degree, rule_for_degree(2 * degree))
        s = np.random.default_rng(9).normal(size=(40, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        here, turned = vsh_basis(s, degree), vsh_basis(s[:, list(axes)], degree)
        for family in Family:
            F, Ft = here.family(family), turned.family(family)
            for ell, D in enumerate(R):
                sl = slice(ell * ell, (ell + 1) ** 2)
                expected = np.einsum("qp,ptc->qtc", D, F[sl][:, :, list(axes)])
                assert np.abs(Ft[sl] - expected).max() <= 1e-13 * max(1.0, np.abs(Ft[sl]).max())

    def test_identity_and_characters(self):
        degree = 6
        R = harmonics.permutation_rotation((0, 1, 2), degree, rule_for_degree(2 * degree))
        assert all(np.abs(D - np.eye(len(D))).max() < 1e-14 for D in R)
        # the frame's flip of axis a is the flip of axis axes[a]: R maps each
        # character onto its image with exact zeros elsewhere
        signs = harmonics.reflection_signs(degree).reshape(8, -1, 3)[[1, 2, 4], :, 0]
        for axes in _CYCLIC:
            R = harmonics.permutation_rotation(axes, degree, rule_for_degree(2 * degree))
            for ell, D in enumerate(R):
                sl = slice(ell * ell, (ell + 1) ** 2)
                other = (signs[:, sl, None] != signs[list(axes)][:, None, sl]).any(axis=0)
                assert np.all(D[other] == 0.0)

    def test_refuses_other_axes_and_weak_rules(self):
        with pytest.raises(ValueError, match="cyclic"):
            harmonics.permutation_rotation((1, 0, 2), 3, rule_for_degree(6))
        with pytest.raises(ValueError, match="below"):
            harmonics.permutation_rotation((1, 2, 0), 4, rule_for_degree(7))


class TestDiagonalMirror:
    @pytest.mark.parametrize("degree", range(1, 21))
    def test_mirrors_the_vector_basis(self, degree):
        # F_q(sigma s) = signs[q] sigma F_image[q](s), sigma: (x, y, z) -> (y, x, z)
        image, signs = harmonics.diagonal_mirror(degree)
        s = unit_vectors(30, np.random.default_rng(degree))
        here, mirrored = vsh_basis(s, degree), vsh_basis(s[:, [1, 0, 2]], degree)
        for family in Family:
            F, Fm = here.family(family), mirrored.family(family)
            rows = image[family::3] // 3
            expected = signs[family::3, None, None] * F[rows][:, :, [1, 0, 2]]
            assert np.abs(Fm - expected).max() <= 1e-14 * np.abs(F).max()

    def test_signed_involution(self):
        degree = 9
        image, signs = harmonics.diagonal_mirror(degree)
        assert not image.flags.writeable and not signs.flags.writeable
        assert np.array_equal(image[image], np.arange(image.size))
        assert np.array_equal(signs[image], signs) and np.all(np.abs(signs) == 1.0)
        # families stay, and the orders: even |m| keep their mode, odd |m| swap m and -m
        assert np.array_equal(image % 3, np.arange(image.size) % 3)
        ells, ms = (np.array(a) for a in zip(*(sh_degree_order(p) for p in image[::3] // 3)))
        own = [sh_degree_order(p) for p in range(ells.size)]
        for (ell, m), e, mm in zip(own, ells, ms):
            assert e == ell and mm == (m if m % 2 == 0 else -m)
