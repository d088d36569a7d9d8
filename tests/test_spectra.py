import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from elastisph.harmonics import VshExpansion, per_degree, sh_index, vsh_basis
from elastisph.materials import LameParams
from elastisph.quadrature import SphereFrame
from elastisph.spectra import (
    MODE_AS_PRINTED,
    MODE_SELF_CONSISTENT,
    MODES,
    adjoint_double_eigs,
    apply_double_layer,
    apply_single_layer,
    audit_spectra,
    double_layer_matrix,
    single_layer_eigs,
    single_layer_matrix,
    traction_trace_matrices,
)

P11 = LameParams(1.0, 1.0)
UNIT = SphereFrame((0.0, 0.0, 0.0), 1.0)

MATERIAL_GRID = [LameParams(0.1, 0.0), LameParams(1.0, 1.0), LameParams(10.0, 1.0),
                 LameParams(1.0, 10.0), LameParams(0.7, 3.2)]


class TestSingleLayerEigs:
    def test_golden_l0(self):
        assert single_layer_eigs(0, P11)[0] == pytest.approx(1 / 9, rel=1e-14)

    def test_golden_l1(self):
        assert_allclose(single_layer_eigs(1, P11), (1 / 9, 7 / 9, 1 / 3), rtol=1e-14)

    def test_toroidal_independent_of_lambda(self):
        assert single_layer_eigs(1, LameParams(1.0, 0.0))[2] == pytest.approx(1 / 3, rel=1e-15)
        assert single_layer_eigs(1, LameParams(1.0, 7.3))[2] == pytest.approx(1 / 3, rel=1e-15)

    def test_coercivity(self):
        # positive eigenvalues whenever lam >= 0, for all tested degrees
        for mu in (0.1, 1.0, 10.0):
            for lam in (0.0, 1.0, 10.0):
                params = LameParams(mu, lam)
                assert single_layer_eigs(0, params)[0] > 0
                for ell in range(1, 51):
                    assert min(single_layer_eigs(ell, params)) > 0


class TestAdjointDoubleEigs:
    def test_degree_one_w_is_minus_half(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = float(10.0 ** rng.uniform(-1, 1))
            lam = float(rng.uniform(-2 * mu / 3 + 1e-3, 10 * mu))
            params = LameParams(mu, lam)
            for mode in (MODE_SELF_CONSISTENT, MODE_AS_PRINTED):
                assert adjoint_double_eigs(1, params, mode)[1] == pytest.approx(-0.5, abs=1e-14)

    def test_golden_l1(self):
        assert adjoint_double_eigs(1, P11)[0] == pytest.approx(-1 / 6, rel=1e-14)

    def test_toroidal_mode_dependence(self):
        assert adjoint_double_eigs(1, P11, MODE_SELF_CONSISTENT)[2] == pytest.approx(-0.5)
        assert adjoint_double_eigs(1, P11, MODE_AS_PRINTED)[2] == pytest.approx(1 / 6)
        assert adjoint_double_eigs(2, P11, MODE_SELF_CONSISTENT)[2] == pytest.approx(-0.3)

    def test_minus_half_only_at_degree_one(self):
        for params in MATERIAL_GRID:
            for ell in range(51):
                for k in (0, 1):
                    if ell == 1 and k == 1:
                        continue
                    assert abs(adjoint_double_eigs(ell, params)[k] + 0.5) > 1e-12
                if ell != 1:
                    assert abs(
                        adjoint_double_eigs(ell, params, MODE_SELF_CONSISTENT)[2] + 0.5
                    ) > 1e-12
                # the printed toroidal entry is positive, never -1/2
                assert adjoint_double_eigs(ell, params, MODE_AS_PRINTED)[2] > 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            adjoint_double_eigs(1, P11, "typo")


class TestSingleLayerMatrix:
    def test_interior_entries(self):
        A = single_layer_matrix(1, P11, np.array(0.5), "in")
        assert A[0, 0] == pytest.approx(1 / 36, rel=1e-14)
        assert A[1, 0] == pytest.approx(-1 / 6, rel=1e-14)
        assert A[2, 2] == pytest.approx((1 / 3) * 0.5, rel=1e-14)

    def test_monopole_interior_is_linear(self):
        # S V00 inside scales like rho (an L-harmonic linear field), so
        # the entry at rho = 0.5 is tau1 / 2
        A = single_layer_matrix(0, P11, np.array(0.5), "in")
        assert A[0, 0] == pytest.approx(0.5 / 9, rel=1e-14)

    def test_boundary_consistency(self):
        for params in MATERIAL_GRID:
            for ell in range(21):
                tau = single_layer_eigs(ell, params)
                ain = single_layer_matrix(ell, params, np.array(1.0), "in")
                aout = single_layer_matrix(ell, params, np.array(1.0), "out")
                active = (0,) if ell == 0 else (0, 1, 2)
                for k in active:
                    assert abs(ain[k, k] - tau[k]) < 1e-14 * max(1, abs(tau[k]))
                    assert abs(aout[k, k] - tau[k]) < 1e-14 * max(1, abs(tau[k]))
                assert abs(ain[0, 1]) == 0.0 and abs(aout[1, 0]) == 0.0

    def test_degree_array_matches_single_degrees(self):
        # an array of degrees stacks the one-degree matrices of either
        # layer; the centre rho = 0 stays finite on the interior side
        rng = np.random.default_rng(4)
        layers = [single_layer_matrix]
        layers += [lambda ell, params, rho, side, mode=mode:
                   double_layer_matrix(ell, params, rho, side, mode) for mode in MODES]
        for matrix in layers:
            for side, rho in (("in", np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 50)])),
                              ("out", np.concatenate([[1.0], rng.uniform(1, 30, 50)]))):
                stacked = matrix(np.arange(12), P11, rho, side)
                assert stacked.shape == (12, rho.size, 3, 3)
                for ell in range(12):
                    one = matrix(ell, P11, rho, side)
                    assert_allclose(stacked[ell], one, rtol=1e-14, atol=1e-15 * np.abs(one).max())
                assert np.all(np.isfinite(stacked))

    def test_no_coupling_between_poloidal_and_toroidal(self):
        # entries (V, X), (W, X), (X, V) and (X, W) are exact zeros at every
        # degree and on both sides; the pair-block kernel reads only the
        # (V, W) block and the X entry
        rng = np.random.default_rng(7)
        for params in MATERIAL_GRID:
            for side, rho in (("in", np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 20)])),
                              ("out", np.concatenate([[1.0], rng.uniform(1, 30, 20)]))):
                A = single_layer_matrix(np.arange(21), params, rho, side)
                assert np.all(A[..., [0, 1, 2, 2], [2, 2, 0, 1]] == 0.0)

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            single_layer_matrix(1, P11, np.array(1.5), "in")
        with pytest.raises(ValueError):
            single_layer_matrix(1, P11, np.array(0.5), "out")


class TestDoubleLayerMatrix:
    def test_printed_golden_entries(self):
        one = np.array(1.0)
        A0 = double_layer_matrix(0, P11, one, "in", MODE_AS_PRINTED)
        assert A0[0, 0] == pytest.approx(-2 / 3, rel=1e-14)
        A1 = double_layer_matrix(1, P11, one, "out", MODE_AS_PRINTED)
        assert A1[1, 1] == 0.0  # factor (l - 1)
        A = double_layer_matrix(1, P11, np.array(0.5), "in", MODE_AS_PRINTED)
        assert A[2, 2] == pytest.approx(-(2 / 3) * 0.5, rel=1e-14)

    def test_derived_l0(self):
        one = np.array(1.0)
        assert double_layer_matrix(0, P11, one, "in")[0, 0] == pytest.approx(-4 / 9, rel=1e-13)
        assert double_layer_matrix(0, P11, one, "out")[0, 0] == pytest.approx(5 / 9, rel=1e-13)

    def test_derived_toroidal_material_independent(self):
        one = np.array(1.0)
        for params in MATERIAL_GRID:
            din = double_layer_matrix(2, params, one, "in", MODE_SELF_CONSISTENT)
            dout = double_layer_matrix(2, params, one, "out", MODE_SELF_CONSISTENT)
            assert din[2, 2] == pytest.approx(-4 / 5, rel=1e-14)
            assert dout[2, 2] == pytest.approx(1 / 5, rel=1e-14)

    def test_trace_jump_is_minus_identity(self):
        for params in MATERIAL_GRID:
            for ell in range(9):
                din = double_layer_matrix(ell, params, np.array(1.0), "in")
                dout = double_layer_matrix(ell, params, np.array(1.0), "out")
                active = (0,) if ell == 0 else (0, 1, 2)
                jump = din - dout
                for k in active:
                    assert_allclose(jump[:, k], -np.eye(3)[:, k], atol=1e-11)

    def test_boundary_average_matches_adjoint_eigs(self):
        for ell in (1, 2, 5):
            din = double_layer_matrix(ell, P11, np.array(1.0), "in")
            dout = double_layer_matrix(ell, P11, np.array(1.0), "out")
            avg = 0.5 * (din + dout)
            tau = adjoint_double_eigs(ell, P11, MODE_SELF_CONSISTENT)
            assert_allclose(np.diag(avg), tau, atol=1e-12)
            assert_allclose(avg - np.diag(np.diag(avg)), 0.0, atol=1e-12)


class TestTractionTraces:
    def test_jump_identity_and_average(self):
        for params in MATERIAL_GRID:
            for ell in range(21):
                t_in, t_out = traction_trace_matrices(ell, params)
                tau = adjoint_double_eigs(ell, params, MODE_SELF_CONSISTENT)
                active = (0,) if ell == 0 else (0, 1, 2)
                for k in active:
                    assert_allclose((t_in - t_out)[:, k], np.eye(3)[:, k], atol=1e-12)
                    assert_allclose(0.5 * (t_in + t_out)[:, k], tau[k] * np.eye(3)[:, k],
                                    atol=1e-12)


class TestApplyLayers:
    def test_v00_exterior_golden(self):
        density = VshExpansion.zeros(-1, 0)
        density.coeffs[0, 0] = 1.0
        val = apply_single_layer(UNIT, P11, density, np.array([0.0, 0.0, 2.0]))
        expected = (1 / 9) * 2.0 ** -2 * (-1 / (2 * np.sqrt(np.pi))) * np.array([0, 0, 1.0])
        assert_allclose(val, expected, rtol=1e-14)

    def test_radius_scaling_factor(self):
        density = VshExpansion.zeros(-1, 0)
        density.coeffs[0, 0] = 1.0
        big = SphereFrame((0.0, 0.0, 0.0), 2.0)
        v1 = apply_single_layer(UNIT, P11, density, np.array([0.0, 0.0, 2.0]))
        v2 = apply_single_layer(big, P11, density, np.array([0.0, 0.0, 4.0]))
        assert_allclose(v2, 2.0 * v1, rtol=1e-13)

    def test_translation_covariance(self):
        rng = np.random.default_rng(9)
        density = VshExpansion.zeros(-1, 3)
        density.coeffs[1:, :] = rng.normal(size=density.coeffs[1:, :].shape)
        frame = SphereFrame((1.0, -2.0, 0.5), 1.4)
        x = np.array([2.0, -1.0, 1.5])
        v1 = apply_single_layer(frame, P11, density, x)
        v0 = apply_single_layer(SphereFrame((0, 0, 0), 1.4), P11, density,
                                x - frame.center_array)
        assert_allclose(v1, v0, atol=1e-13)

    def test_center_is_well_defined(self):
        rng = np.random.default_rng(10)
        density = VshExpansion.zeros(-1, 4)
        density.coeffs[:] = rng.normal(size=density.coeffs.shape)
        density.coeffs[0, 1] = density.coeffs[0, 2] = 0.0
        val = apply_single_layer(UNIT, P11, density, np.zeros(3))
        # only the constant interior profiles survive at the center:
        # degree-1 W columns and the V-column coupling
        from elastisph.harmonics import eval_VWX
        from elastisph.spectra import single_layer_matrix as slm

        A = slm(1, P11, np.array(0.0), "in")
        expected = np.zeros(3)
        for m in (-1, 0, 1):
            p = sh_index(1, m)
            W = eval_VWX(1, m, np.array([0.0, 0.0, 1.0]))[1]
            expected += (A[1, 0] * density.coeffs[p, 0] + A[1, 1] * density.coeffs[p, 1]) * W
        assert_allclose(val, expected, atol=1e-13)

    def test_zero_density(self):
        density = VshExpansion.zeros(-1, 2)
        assert_allclose(apply_single_layer(UNIT, P11, density, np.array([0.3, 0.1, 0.5])), 0.0)
        assert_allclose(apply_double_layer(UNIT, P11, density, np.array([0.3, 0.1, 0.5])), 0.0)


def _vsh_sum(matrix, frame, density, pts):
    """The layer potential written out over the vector harmonics: at each
    point, sum over (l, m) of (A(l, rho) coeff) . (V, W, X)(direction)."""
    rel = pts - frame.center_array
    dist = np.linalg.norm(rel, axis=1)
    dirs = np.array([r / d if d > 0.0 else [0.0, 0.0, 1.0] for r, d in zip(rel, dist)])
    basis = vsh_basis(dirs, density.max_degree)
    out = np.zeros_like(pts)
    for i, rho in enumerate(dist / frame.radius):
        side = "in" if rho <= 1.0 else "out"
        for ell in range(density.max_degree + 1):
            A = matrix(ell, rho, side)
            for p in range(ell * ell, (ell + 1) ** 2):
                c = A @ density.coeffs[p]
                out[i] += c[0] * basis.V[p, i] + c[1] * basis.W[p, i] + c[2] * basis.X[p, i]
    return out


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
def test_layers_match_vsh_sum(degree, seed):
    """Both layer potentials (double layer in each mode) agree with the
    explicit V/W/X sum for random densities, at points inside, outside
    and at the centre of a random sphere, and each point's value is the
    same, bit for bit, when it is evaluated on its own."""
    rng = np.random.default_rng(seed)
    frame = SphereFrame(tuple(rng.uniform(-2.0, 2.0, 3)), rng.uniform(0.5, 2.0))
    params = LameParams(rng.uniform(0.2, 5.0), rng.uniform(0.0, 5.0))
    density = VshExpansion.zeros(-1, degree)
    density.coeffs[:] = rng.normal(size=density.coeffs.shape)
    density.coeffs[0, 1:] = 0.0
    # some degrees carry no density, which the synthesis skips
    density.coeffs[per_degree(rng.random(degree + 1) < 0.3)] = 0.0
    dirs = rng.normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho = np.concatenate([rng.uniform(0.05, 0.95, 4), rng.uniform(1.05, 3.0, 4)])
    pts = np.vstack([frame.center_array,
                     frame.center_array + frame.radius * rho[:, None] * dirs])
    cases = [(lambda x: apply_single_layer(frame, params, density, x),
              lambda ell, r, side: frame.radius * single_layer_matrix(ell, params, r, side))]
    cases += [(lambda x, mode=mode: apply_double_layer(frame, params, density, x, mode),
               lambda ell, r, side, mode=mode: double_layer_matrix(ell, params, r, side, mode))
              for mode in MODES]
    for potential, matrix in cases:
        value = potential(pts)
        ref = _vsh_sum(matrix, frame, density, pts)
        assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(value, [potential(x) for x in pts])


@pytest.mark.parametrize("degree", [0, 1, 16])
def test_order_sums_match_vsh_sum_at_special_points(degree):
    """The per-order synthesis against the explicit V/W/X sum at the
    points where it could break: the centre, the z axis through the
    centre (x = y = 0, where every C/S power of order m >= 1 vanishes),
    and rho = 1 -+ 1e-12 on each side of the surface, for densities that
    fill every degree up to 0, 1 or 16."""
    rng = np.random.default_rng(degree)
    frame = SphereFrame((0.3, -0.2, 0.1), 1.3)
    density = VshExpansion.zeros(-1, degree)
    density.coeffs[:] = rng.normal(size=density.coeffs.shape)
    density.coeffs[0, 1:] = 0.0
    dirs = rng.normal(size=(3, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    rho = np.array([0.4, 1.0 - 1e-12, 1.0 + 1e-12, 2.5])
    offsets = frame.radius * (rho[:, None, None] * dirs).reshape(-1, 3)
    pts = np.vstack([frame.center_array, frame.center_array + offsets])
    cases = [(lambda x: apply_single_layer(frame, P11, density, x),
              lambda ell, r, side: frame.radius * single_layer_matrix(ell, P11, r, side))]
    cases += [(lambda x, mode=mode: apply_double_layer(frame, P11, density, x, mode),
               lambda ell, r, side, mode=mode: double_layer_matrix(ell, P11, r, side, mode))
              for mode in MODES]
    for potential, matrix in cases:
        value = potential(pts)
        ref = _vsh_sum(matrix, frame, density, pts)
        assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestAudit:
    def test_self_consistent_clean(self):
        records = audit_spectra(3, P11, rule_degree=35, oracle_points=False)
        assert not any(r.flagged for r in records)

    def test_as_printed_flags_double_layer(self):
        records = audit_spectra(3, P11, rule_degree=35, mode=MODE_AS_PRINTED,
                                oracle_points=False)
        flagged = {(r.identity, r.ell, r.k) for r in records if r.flagged}
        # the printed degree-0 entry satisfies the displacement jump (it
        # violates traction continuity, caught by the oracle check), but
        # the printed W column and the toroidal eigenvalue fail here
        assert ("double_layer_trace_jump", 1, "W") in flagged
        assert ("adjoint_double_eigenvalue", 1, "X") in flagged
        # the single layer tables are consistent in both modes
        assert not any(r.flagged and r.identity.startswith("single_layer") for r in records)

    def test_oracle_comparison_self_consistent(self):
        records = audit_spectra(1, P11, rule_degree=35, mode=MODE_SELF_CONSISTENT,
                                oracle_tol=1e-6)
        assert max(r.residual for r in records) < 1e-6

    def test_oracle_comparison_flags_printed(self):
        records = audit_spectra(1, P11, rule_degree=35, mode=MODE_AS_PRINTED,
                                oracle_tol=1e-6)
        flagged = {(r.identity, r.ell, r.k) for r in records if r.flagged}
        assert ("oracle_double_layer", 1, "X") in flagged
        assert ("oracle_double_layer", 0, "V") in flagged
        assert not any(ident == "oracle_single_layer" for ident, _, _ in flagged)
