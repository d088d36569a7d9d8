import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from elastisph.harmonics import Family, VshExpansion, sh_index
from elastisph.materials import LameParams
from elastisph.postprocess import (
    FieldEvaluator,
    ResonantDataError,
    config_digest,
    export_coefficients,
    minimum_gap,
    norm_difference,
    one_sphere_reference,
    relative_error,
    run_manifest,
    write_manifest,
)
from elastisph.presets import one_sphere_config, poisson_sweep_config, three_sphere_config
from elastisph.problem import BoundaryData, ProblemConfig, SphereSpec, validate
from elastisph.quadrature import SphereFrame
from elastisph.spectra import MODES, MODE_SELF_CONSISTENT, single_layer_eigs
from elastisph.system import assemble, c_coefficient, solve_direct

P11 = LameParams(1.0, 1.0)
SQPI = np.sqrt(np.pi)


class TestOneSphereReference:
    def test_uniform_compression(self):
        sigma = VshExpansion.zeros(1, 2)
        sigma.coeffs[0, 0] = 2 * SQPI
        nu = one_sphere_reference(sigma, P11)
        assert nu.get(0, 0, Family.V) == pytest.approx(2 * SQPI / 5, rel=1e-14)

    def test_toroidal_degree_two_factor_one(self):
        # tau3_V / (1/2 + tau3_K*) = (1/(5 mu)) / (1/5) = 1 at mu = 1
        sigma = VshExpansion.zeros(1, 2)
        sigma.coeffs[sh_index(2, 1), 2] = 0.37
        nu = one_sphere_reference(sigma, P11, MODE_SELF_CONSISTENT)
        assert nu.get(2, 1, Family.X) == pytest.approx(0.37, rel=1e-14)

    def test_zero_in_zero_out(self):
        sigma = VshExpansion.zeros(1, 3)
        nu = one_sphere_reference(sigma, P11)
        assert np.all(nu.coeffs == 0.0)

    def test_resonant_content_rejected(self):
        sigma = VshExpansion.zeros(1, 2)
        sigma.coeffs[sh_index(1, 0), 1] = 1.0  # rigid translation data
        with pytest.raises(ResonantDataError):
            one_sphere_reference(sigma, P11)

    def test_tiny_resonant_content_zeroed(self):
        sigma = VshExpansion.zeros(1, 2)
        sigma.coeffs[0, 0] = 1.0
        sigma.coeffs[sh_index(1, 0), 1] = 1e-15
        nu = one_sphere_reference(sigma, P11)
        assert nu.get(1, 0, Family.W) == 0.0


class TestRelativeError:
    def test_equal_is_zero(self):
        a = VshExpansion.zeros(1, 2)
        a.coeffs[0, 0] = 1.0
        assert relative_error(a, a) == 0.0

    def test_double_is_one(self):
        a = VshExpansion.zeros(1, 2)
        a.coeffs[0, 0] = 1.0
        b = VshExpansion(1, 2, 2 * a.coeffs)
        assert relative_error(b, b) == 0.0
        assert relative_error(VshExpansion(1, 2, 2 * a.coeffs), a) == pytest.approx(1.0)

    def test_padding(self):
        a = VshExpansion.zeros(1, 1)
        a.coeffs[0, 0] = 1.0
        b = VshExpansion.zeros(1, 3)
        b.coeffs[0, 0] = 1.0
        assert relative_error(a, b) == 0.0

    def test_zero_reference_rejected(self):
        a = VshExpansion.zeros(1, 1)
        with pytest.raises(ValueError):
            relative_error(a, VshExpansion.zeros(1, 1))


class TestNormDifference:
    def test_equal_is_zero(self):
        a = VshExpansion.zeros(1, 2)
        a.coeffs[0, 0] = 1.0
        assert norm_difference(a, a) == 0.0

    def test_scaled_is_factor_minus_one(self):
        a = VshExpansion.zeros(1, 2)
        a.coeffs[0, 0] = 1.0
        a.coeffs[sh_index(2, 1), 2] = -0.4
        assert norm_difference(VshExpansion(1, 2, 3 * a.coeffs), a) == pytest.approx(2.0)
        assert norm_difference(VshExpansion(1, 2, 0.25 * a.coeffs), a) == pytest.approx(0.75)

    def test_blind_to_shape(self):
        # same norm, opposite sign: zero norm difference, relative error 2
        a = VshExpansion.zeros(1, 2)
        a.coeffs[0, 0] = 1.0
        b = VshExpansion.zeros(1, 2)
        b.coeffs[0, 0] = -1.0
        assert norm_difference(b, a) == 0.0
        assert relative_error(b, a) == pytest.approx(2.0)

    def test_zero_reference_rejected(self):
        a = VshExpansion.zeros(1, 1)
        with pytest.raises(ValueError):
            norm_difference(a, VshExpansion.zeros(1, 1))


class TestDisplacement:
    def solved_case1(self):
        cfg = validate(one_sphere_config(1, 2))
        sol = solve_direct(assemble(cfg), cfg)
        return cfg, sol

    def test_uniform_compression_field(self):
        cfg, sol = self.solved_case1()
        pts = np.array([[0.3, 0.2, -0.1], [0.6, -0.5, 0.3], [0.0, 0.0, 0.9]])
        u = FieldEvaluator(cfg, sol).displacement(pts)
        assert_allclose(u, -pts / 5, atol=1e-10)

    def test_center_is_finite(self):
        cfg, sol = self.solved_case1()
        u = FieldEvaluator(cfg, sol).displacement(np.zeros(3))
        assert_allclose(u, 0.0, atol=1e-12)

    def test_zero_contrast_smooth_across_interface(self):
        cfg = validate(ProblemConfig(
            spheres=(
                SphereSpec(id=1, frame=SphereFrame((0.3, 0.0, 0.0), 0.4),
                           role="transmission", material=P11,
                           data=BoundaryData(kind="zero")),
                SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 1.0), role="neumann",
                           enclosing=True, data=BoundaryData(kind="linear", scale=-1.0)),
            ),
            background=P11, degree=4))
        sol = solve_direct(assemble(cfg), cfg)
        ev = FieldEvaluator(cfg, sol)
        n = np.array([0.6, 0.64, 0.48])
        n /= np.linalg.norm(n)
        eps = 1e-3
        inside = np.array([0.3, 0, 0]) + (0.4 - eps) * n
        outside = np.array([0.3, 0, 0]) + (0.4 + eps) * n
        uin, uout = ev.displacement(np.stack([inside, outside]))
        # smooth across the interface: the two-sided values differ by
        # exactly the field increment of the uniform compression
        assert_allclose(uin - uout, -(inside - outside) / 5, atol=1e-9)
        # the field equals the uniform compression up to the rigid
        # translation fixed by the solver gauge: differences are exact
        far = np.array([0.0, 0.0, -0.8])
        ufar = ev.displacement(far[None])[0]
        assert_allclose(uin - ufar, -(inside - far) / 5, atol=1e-9)

    def test_linearity_in_data(self):
        def solved(scale):
            cfg = validate(ProblemConfig(
                spheres=(SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 1.0),
                                    role="neumann", enclosing=True,
                                    data=BoundaryData(kind="sinusoidal", scale=scale)),),
                background=P11, degree=4))
            sol = solve_direct(assemble(cfg), cfg)
            return FieldEvaluator(cfg, sol).displacement(np.array([0.2, -0.3, 0.4]))

        u1 = solved(-1.0)
        u2 = solved(-2.0)
        assert_allclose(u2, 2 * u1, atol=1e-12)

    def test_on_surface_rejected(self):
        cfg, sol = self.solved_case1()
        with pytest.raises(ValueError, match="surface"):
            FieldEvaluator(cfg, sol).displacement(np.array([1.0, 0.0, 0.0]))

    def test_outside_rejected(self):
        cfg, sol = self.solved_case1()
        with pytest.raises(ValueError, match="outside"):
            FieldEvaluator(cfg, sol).displacement(np.array([2.0, 0.0, 0.0]))

    def test_neumann_cavity_rejected(self):
        cfg = validate(three_sphere_config(3))
        sol = solve_direct(assemble(cfg), cfg)
        with pytest.raises(ValueError, match="cavity"):
            FieldEvaluator(cfg, sol).displacement(np.array([-1.0, 0.0, 0.02]))

    def test_transmission_interior_consistency(self):
        # trace block vs extrapolated off-surface limits from either side
        cfg = validate(three_sphere_config(8))
        sol = solve_direct(assemble(cfg), cfg)
        ev = FieldEvaluator(cfg, sol)
        from elastisph.harmonics import reconstruct

        center = np.array([1.0, 0.0, 0.0])
        r = 0.1
        dirs = np.array([[0.0, 0.8, 0.6], [1.0, 0.0, 0.0], [-0.36, 0.48, 0.8]])
        nu = reconstruct(sol.trace(1), dirs)
        eps = 2e-4
        for sign in (-1.0, +1.0):
            u1 = ev.displacement(center + r * (1 + sign * eps) * dirs)
            u2 = ev.displacement(center + r * (1 + sign * eps / 2) * dirs)
            limit = 2 * u2 - u1
            assert np.abs(limit - nu).max() < 1e-6


def _per_mode_densities(cfg, sol):
    """The field densities C/r nu + Sigma and nu / (r tau_V), mode by mode."""
    phi, inner = {}, {}
    for s in cfg.spheres:
        nu, sig, r = sol.trace(s.id), sol.sigma[s.id], s.frame.radius
        phi[s.id] = np.zeros_like(nu.coeffs)
        if s.role == "transmission":
            inner[s.id] = np.zeros_like(nu.coeffs)
        for ell in range(nu.max_degree + 1):
            sl = slice(ell * ell, (ell + 1) * (ell + 1))
            for k in ((Family.V,) if ell == 0 else tuple(Family)):
                c = c_coefficient(s, cfg.background, ell, k, sol.mode)
                phi[s.id][sl, k] = c / r * nu.coeffs[sl, k] + sig.coeffs[sl, k]
                if s.role == "transmission":
                    tau = single_layer_eigs(ell, s.material)[k]
                    inner[s.id][sl, k] = nu.coeffs[sl, k] / (r * tau)
    return phi, inner


class TestFieldTables:
    @pytest.fixture(scope="class", params=MODES)
    def solved(self, request):
        cfg = validate(three_sphere_config(8))
        return cfg, solve_direct(assemble(cfg, mode=request.param), cfg)

    def test_densities_match_per_mode_construction(self, solved):
        cfg, sol = solved
        ev = FieldEvaluator(cfg, sol)
        phi, inner = _per_mode_densities(cfg, sol)
        assert sorted(ev._phi) == sorted(phi) and sorted(ev._inner) == sorted(inner) == [1]
        for sid in phi:
            assert_array_equal(ev._phi[sid].coeffs, phi[sid])
        assert_array_equal(ev._inner[1].coeffs, inner[1])

    def test_mixed_batch_matches_pointwise(self, solved):
        cfg, sol = solved
        ev = FieldEvaluator(cfg, sol)
        center = np.array([1.0, 0.0, 0.0])  # the inclusion's centre
        batch = np.array([
            [0.3, 0.5, -0.2],
            center + [0.05, 0.02, -0.03],
            [-1.5, 0.4, 0.3],
            center,
            [1.0, 0.3, 0.0],
            center + [-0.02, 0.0, 0.07],
            [0.0, 0.0, 1.7],
        ])
        pointwise = np.array([ev.displacement(x[None])[0] for x in batch])
        assert_array_equal(ev.displacement(batch), pointwise)


class TestExports:
    def test_coefficient_csv_full_precision(self, tmp_path):
        exp = VshExpansion.zeros(1, 1)
        exp.coeffs[0, 0] = 1.0 / 3.0
        path = tmp_path / "coeffs.csv"
        export_coefficients({1: exp}, path)
        rows = list(csv.DictReader(path.open()))
        assert rows[0]["sphere"] == "1"
        v = [r for r in rows if r["ell"] == "0" and r["k"] == "V"][0]
        assert float(v["value"]) == 1.0 / 3.0

    def test_empty_solution_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_coefficients({}, path)
        assert path.read_text().strip() == "sphere,ell,m,k,value"

    def test_field_samples(self):
        cfg = validate(one_sphere_config(1, 2))
        sol = solve_direct(assemble(cfg), cfg)
        ev = FieldEvaluator(cfg, sol)
        pts = 0.5 * np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        # |u| = |x|/5 = 0.1 on this shell
        assert_allclose(np.linalg.norm(ev.displacement(pts), axis=1), 0.1, rtol=0, atol=1e-10)

    def test_manifest(self, tmp_path):
        cfg = validate(three_sphere_config(3))
        sol = solve_direct(assemble(cfg), cfg)
        m = run_manifest("solve", cfg, "self_consistent", 7, {"assembly": 0.1}, sol)
        path = tmp_path / "m.json"
        write_manifest(m, path)
        loaded = json.loads(path.read_text())
        assert loaded["spectra_mode"] == "self_consistent"
        assert loaded["degree"] == 3
        assert loaded["residual"] == sol.residual
        assert loaded["minimum_gap"] == pytest.approx(0.9)

    def test_digest_stable(self):
        a = config_digest(three_sphere_config(3))
        b = config_digest(three_sphere_config(3))
        assert a == b
        assert a != config_digest(three_sphere_config(4))

    def test_minimum_gap(self):
        cfg = poisson_sweep_config(0.2, 0.1)
        assert minimum_gap(cfg) == pytest.approx(0.5)
