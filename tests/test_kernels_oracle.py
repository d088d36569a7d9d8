import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastisph import kernels_oracle
from elastisph.harmonics import Family, ModeIndex, VshExpansion, sh_index
from elastisph.kernels_oracle import (
    apply_L_fd,
    dl_offsurface,
    green,
    jump_audit,
    sl_offsurface,
    traction_fd,
    traction_kernel,
    _green_traction,
)
from elastisph.materials import LameParams
from elastisph.quadrature import SphereFrame

P11 = LameParams(1.0, 1.0)
UNIT = SphereFrame((0.0, 0.0, 0.0), 1.0)
RNG = np.random.default_rng(7)


class TestGreen:
    def test_golden_diagonal(self):
        G = green(np.array([1.0, 0.0, 0.0]), P11)
        assert G[0, 0] == pytest.approx(1 / (4 * np.pi), rel=1e-14)
        assert G[1, 1] == pytest.approx(1 / (6 * np.pi), rel=1e-14)
        assert G[2, 2] == pytest.approx(1 / (6 * np.pi), rel=1e-14)
        assert abs(G[0, 1]) + abs(G[0, 2]) + abs(G[1, 2]) < 1e-16

    def test_symmetry_and_parity(self):
        x = RNG.normal(size=3)
        G = green(x, P11)
        assert_allclose(G, G.T, atol=1e-16)
        assert_allclose(G, green(-x, P11), atol=1e-16)

    def test_homogeneity(self):
        x = RNG.normal(size=3)
        assert_allclose(green(2 * x, P11), green(x, P11) / 2, atol=1e-15)

    def test_singularity(self):
        with pytest.raises(ValueError):
            green(np.zeros(3), P11)

    def test_l_harmonic_columns(self):
        y = np.array([0.3, -0.2, 0.5])
        c = RNG.normal(size=3)
        field = lambda pts: green(pts - y, P11) @ c
        for x in (np.array([1.2, 0.4, -0.3]), np.array([-0.5, 0.9, 1.4])):
            res = apply_L_fd(field, x, P11, step=1e-4)
            scale = np.abs(field(x[None])[0]).max() / np.dot(x - y, x - y)
            assert np.abs(res).max() < 1e-4 * scale


class TestTractionKernel:
    def test_matches_fd_of_green_columns(self):
        x = np.array([0.5, 0.2, 0.9])
        y = np.array([-0.3, 0.1, 0.2])
        n = np.array([0.48, -0.6, 0.64])
        K = traction_kernel(x, y, n, P11)
        fd = np.zeros((3, 3))
        for j in range(3):
            col = lambda pts, jj=j: green(x[None, :] - pts, P11)[:, :, jj]
            fd[:, j] = traction_fd(col, y, n, P11, step=1e-5)
        assert np.max(np.abs(K - fd)) < 1e-6 * np.max(np.abs(K))

    def test_kernel_symmetry_on_sphere(self):
        # the double-layer and adjoint-double-layer kernels coincide
        # pointwise when both arguments lie on the same sphere
        for params in (P11, LameParams(2.0, 0.3)):
            for _ in range(5):
                x, y = (v / np.linalg.norm(v) for v in RNG.normal(size=(2, 3)))
                MD = traction_kernel(x, y, y, params)
                MKs = _green_traction(x - y, x, params).T
                assert np.max(np.abs(MD - MKs)) < 1e-12 * max(1.0, np.max(np.abs(MD)))

    def test_sphere_chord_identity(self):
        x, y = (v / np.linalg.norm(v) for v in RNG.normal(size=(2, 3)))
        assert np.dot(x - y, x) == pytest.approx(np.dot(y - x, y), rel=1e-12)

    def test_coincident_points(self):
        with pytest.raises(ValueError):
            traction_kernel(np.ones(3), np.ones(3), np.array([0.0, 0, 1]), P11)


class TestOffSurfacePotentials:
    def test_single_layer_v00_exterior(self):
        density = VshExpansion.zeros(-1, 0)
        density.coeffs[0, 0] = 1.0
        val = sl_offsurface(density, UNIT, P11, np.array([2.0, 0.0, 0.0]), rule_degree=47)
        # exterior radial decay tau1 * rho^-2 times V00
        expected = (1.0 / 9.0) * 0.25 * (-0.5 / np.sqrt(np.pi)) * np.array([1.0, 0, 0])
        assert_allclose(val, expected, atol=1e-10)

    def test_single_layer_x10_interior(self):
        density = VshExpansion.zeros(-1, 1)
        density.coeffs[sh_index(1, 0), 2] = 1.0
        x = np.array([0.0, 0.3, 0.4])
        val = sl_offsurface(density, UNIT, P11, x, rule_degree=47)
        rho = np.linalg.norm(x)
        d = x / rho
        x10 = np.sqrt(3 / (4 * np.pi)) * np.array([d[1], -d[0], 0.0])
        assert_allclose(val, (1.0 / 3.0) * rho * x10, atol=1e-10)

    def test_zero_density(self):
        density = VshExpansion.zeros(-1, 2)
        x = np.array([0.0, 0.0, 2.0])
        assert_allclose(sl_offsurface(density, UNIT, P11, x), 0.0)
        assert_allclose(dl_offsurface(density, UNIT, P11, x), 0.0)

    def test_double_layer_rigid_identity(self):
        # D applied to the trace of a rigid motion reproduces minus the
        # motion inside and vanishes outside
        omega = np.array([0.0, 0.0, 1.0])
        rot = lambda pts: np.cross(omega, pts)
        inside = np.array([0.3, 0.2, -0.1])
        outside = np.array([1.5, 0.4, 0.2])
        vin = dl_offsurface(rot, UNIT, P11, inside, rule_degree=47)
        vout = dl_offsurface(rot, UNIT, P11, outside, rule_degree=47)
        assert_allclose(vin, -np.cross(omega, inside), atol=1e-9)
        assert_allclose(vout, 0.0, atol=1e-9)

    def test_constant_density_interior_jump(self):
        const = lambda pts: np.tile([0.0, 1.0, 0.0], (len(pts), 1))
        vin = dl_offsurface(const, UNIT, P11, np.array([0.1, -0.2, 0.3]), rule_degree=35)
        assert_allclose(vin, [0.0, -1.0, 0.0], atol=1e-9)

    def test_too_close_refused(self):
        density = VshExpansion.zeros(-1, 0)
        density.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError, match="too close"):
            sl_offsurface(density, UNIT, P11, np.array([1.0 + 1e-5, 0.0, 0.0]))

    def test_general_frame_scaling(self):
        frame = SphereFrame((0.4, -0.3, 0.2), 1.7)
        density = VshExpansion.zeros(-1, 2)
        density.coeffs[sh_index(2, 1), 0] = 0.7
        density.coeffs[sh_index(1, -1), 1] = -0.4
        from elastisph.spectra import apply_single_layer

        pts = frame.center_array + np.array([[0.5, 0.5, 0.5], [3.0, -1.0, 0.3]])
        ref = sl_offsurface(density, frame, P11, pts, rule_degree=47)
        val = apply_single_layer(frame, P11, density, pts)
        assert np.max(np.abs(ref - val)) < 1e-12


class TestDifferentialOperators:
    def test_identity_field_harmonic(self):
        field = lambda pts: pts
        res = apply_L_fd(field, np.array([0.2, 0.5, -0.1]), P11)
        assert np.abs(res).max() < 1e-8

    def test_quadratic_field(self):
        field = lambda pts: np.stack([pts[:, 0] ** 2, 0 * pts[:, 0], 0 * pts[:, 0]], axis=1)
        res = apply_L_fd(field, np.array([0.4, 0.1, 0.2]), P11, step=1e-4)
        # -mu * lap - (mu + lam) grad div of (x^2, 0, 0)
        assert_allclose(res, [-6.0, 0.0, 0.0], atol=1e-6)

    def test_traction_uniform_compression(self):
        field = lambda pts: -0.2 * pts
        n = np.array([0.6, 0.0, 0.8])
        tr = traction_fd(field, 1.3 * n, n, P11)
        assert_allclose(tr, -0.2 * 5.0 * n, atol=1e-9)

    def test_traction_rigid_motion_zero(self):
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        field = lambda pts: pts @ A.T + np.array([0.1, 0.2, 0.3])
        tr = traction_fd(field, np.array([0.3, 0.4, 0.5]), np.array([0.0, 0, 1.0]), P11)
        assert np.abs(tr).max() < 1e-8

    def test_traction_consistency_with_radial_formula(self):
        # h(r) X_{1,0} with h = r is a rigid rotation: zero traction
        from elastisph.harmonics import eval_VWX

        def field(pts):
            out = np.empty_like(pts)
            for i, p in enumerate(pts):
                r = np.linalg.norm(p)
                out[i] = r * eval_VWX(1, 0, p / r)[2]
            return out

        n = np.array([0.0, 0.6, 0.8])
        tr = traction_fd(field, n, n, P11)
        assert np.abs(tr).max() < 1e-8


@pytest.fixture(scope="module")
def full_l0_audit():
    """The full audit of V00 at the default rule, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        records = jump_audit([ModeIndex(0, 0, Family.V)], P11)
        return records, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_same_records(records, reference):
    """Equal record sets, told apart by (l, family, m, identity), to 1e-10."""
    by_key = {(r.ell, r.k, r.m, r.identity): r for r in records}
    ref = {(r.ell, r.k, r.m, r.identity): r for r in reference}
    assert len(by_key) == len(records) and by_key.keys() == ref.keys()
    for key, r in by_key.items():
        assert r.residual == pytest.approx(ref[key].residual, abs=1e-10)
        if r.inferred is not None:
            assert r.inferred == pytest.approx(ref[key].inferred, abs=1e-10)


class TestJumpAudit:
    def test_identities_resolved(self, full_l0_audit):
        records, _ = full_l0_audit
        by_id = {r.identity: r for r in records}
        assert by_id["single_layer_jump"].residual < 1e-5
        assert by_id["single_layer_traction_jump"].residual < 1e-4
        assert by_id["double_layer_jump"].residual < 1e-4
        # [[T D phi]] = 0: the one check of the double layer's traction jump
        assert by_id["double_layer_traction_jump"].residual < 1e-3
        # inferred adjoint eigenvalue at l=0 is (3 lam - 2 mu)/(6 (2 mu + lam))
        assert by_id["traction_trace_interior"].inferred == pytest.approx(1 / 18, abs=1e-5)

    def test_toroidal_degree_one_eigenvalue(self):
        records = jump_audit([ModeIndex(1, 0, Family.X)], P11, layers=("single",))
        by_id = {r.identity: r for r in records}
        assert by_id["single_layer_traction_jump"].residual < 1e-4
        assert by_id["traction_trace_interior"].inferred == pytest.approx(-0.5, abs=1e-5)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layers"):
            jump_audit([ModeIndex(0, 0, Family.V)], P11, layers=("single", "dubble"))

    def test_degenerate_mode_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            jump_audit([ModeIndex(1, 0, Family.W), ModeIndex(0, 0, Family.W)], P11)

    def test_stack_equals_per_mode_calls(self):
        modes = [ModeIndex(0, 0, Family.V), ModeIndex(1, -1, Family.W), ModeIndex(1, 0, Family.W),
                 ModeIndex(1, 1, Family.W), ModeIndex(1, 0, Family.X)]
        stacked = jump_audit(modes, P11, rule_degree=23)
        # m tells the three W1 modes apart: six distinct records for each mode
        assert len(stacked) == 6 * len(modes)
        _assert_same_records(stacked, [r for mode in modes
                                       for r in jump_audit([mode], P11, rule_degree=23)])

    def test_full_audit_memory(self, full_l0_audit):
        # one kernel block at a time: the whole double-layer kernel array
        # of the stencil would be 288 MB per side
        _, peak = full_l0_audit
        assert peak < 64 * 2**20


class TestKernelBlocks:
    def test_block_size_invariance(self, monkeypatch):
        frame = SphereFrame((0.4, -0.3, 0.2), 1.7)
        density = VshExpansion.zeros(-1, 3)
        density.coeffs[:] = RNG.normal(size=density.coeffs.shape)
        density.coeffs[0, 1:] = 0.0
        # 100 points, inside and outside, span two default blocks at the
        # 770-node rule
        dirs = RNG.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rho = np.concatenate([np.linspace(0.2, 0.8, 50), np.linspace(1.3, 3.0, 50)])
        pts = frame.center_array + frame.radius * rho[:, None] * dirs
        modes = [ModeIndex(0, 0, Family.V), ModeIndex(1, 0, Family.X)]

        def evaluate():
            return (sl_offsurface(density, frame, P11, pts), dl_offsurface(density, frame, P11, pts),
                    jump_audit(modes, P11, rule_degree=35))

        sl_ref, dl_ref, audit_ref = evaluate()
        monkeypatch.setattr(kernels_oracle, "_KERNEL_BLOCK_BYTES", 1)  # one point per block
        sl_one, dl_one, audit_one = evaluate()
        for val, ref in ((sl_one, sl_ref), (dl_one, dl_ref)):
            assert np.max(np.abs(val - ref)) <= 1e-13 * np.max(np.abs(ref))
        _assert_same_records(audit_one, audit_ref)
