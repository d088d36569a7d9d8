import dataclasses
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastisph import harmonics
from elastisph.harmonics import Family
from elastisph.materials import LameParams, lambda_to_poisson, poisson_to_lambda
from elastisph import problem
from elastisph.postprocess import minimum_gap
from elastisph.presets import lattice_config, three_sphere_config
from elastisph.problem import (
    BoundaryData,
    ProblemConfig,
    SolverOptions,
    SphereSpec,
    ValidationError,
    available_memory,
    build_sigma,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    sphere_gaps,
    validate,
)
from elastisph.quadrature import SphereFrame
from elastisph.system import solver_bytes

SQPI = np.sqrt(np.pi)


def single_neumann(data=None, degree=3):
    return ProblemConfig(
        spheres=(SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 1.0), role="neumann",
                            enclosing=True, data=data or BoundaryData(kind="zero")),),
        background=LameParams(1.0, 1.0), degree=degree)


class TestPoissonConversion:
    def test_golden(self):
        assert poisson_to_lambda(1 / 6, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert lambda_to_poisson(1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_limit_toward_minus_one(self):
        assert poisson_to_lambda(-1 + 1e-9, 1.0) == pytest.approx(-2 / 3, abs=1e-8)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            nu = float(rng.uniform(-0.99, 0.499))
            mu = float(10.0 ** rng.uniform(-1, 1))
            assert lambda_to_poisson(poisson_to_lambda(nu, mu), mu) == pytest.approx(nu, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            poisson_to_lambda(0.5, 1.0)
        with pytest.raises(ValueError):
            poisson_to_lambda(-1.0, 1.0)

    def test_material_admissibility(self):
        with pytest.raises(ValueError):
            LameParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            LameParams(1.0, -0.7)  # 2 mu + 3 lam < 0


class TestValidation:
    def test_table3_valid(self):
        cfg = three_sphere_config(4)
        assert validate(cfg) is cfg

    def test_validate_idempotent(self):
        cfg = three_sphere_config(4)
        validate(cfg)
        validate(cfg)

    def test_overlap(self):
        cfg = ProblemConfig(
            spheres=(
                SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 0.1), role="neumann"),
                SphereSpec(id=2, frame=SphereFrame((0.15, 0.0, 0.0), 0.1), role="neumann"),
                SphereSpec(id=3, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann",
                           enclosing=True),
            ),
            background=LameParams(1.0, 1.0), degree=2)
        with pytest.raises(ValidationError, match="overlap"):
            validate(cfg)

    def test_escape(self):
        cfg = ProblemConfig(
            spheres=(
                SphereSpec(id=1, frame=SphereFrame((1.95, 0.0, 0.0), 0.1), role="neumann"),
                SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann",
                           enclosing=True),
            ),
            background=LameParams(1.0, 1.0), degree=2)
        with pytest.raises(ValidationError, match="strictly inside"):
            validate(cfg)

    def test_every_offender_reported(self):
        def neumann(sid, x):
            return SphereSpec(id=sid, frame=SphereFrame((x, 0.0, 0.0), 0.1), role="neumann")

        cfg = ProblemConfig(
            spheres=(
                neumann(1, 0.0), neumann(2, 0.15), neumann(3, 0.5), neumann(4, 0.6),
                neumann(5, 1.95),
                SphereSpec(id=6, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann",
                           enclosing=True),
            ),
            background=LameParams(1.0, 1.0), degree=2)
        with pytest.raises(ValidationError) as info:
            validate(cfg)
        assert info.value.errors == [
            "sphere 5 is not strictly inside the enclosing sphere",
            "spheres 1 and 2 overlap",
            "spheres 3 and 4 overlap",
        ]

    def test_missing_enclosing(self):
        cfg = ProblemConfig(
            spheres=(SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 1.0),
                                role="neumann"),),
            background=LameParams(1.0, 1.0), degree=2)
        with pytest.raises(ValidationError, match="enclosing"):
            validate(cfg)

    def test_transmission_needs_material(self):
        cfg = ProblemConfig(
            spheres=(
                SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 0.5), role="transmission"),
                SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann",
                           enclosing=True),
            ),
            background=LameParams(1.0, 1.0), degree=2)
        with pytest.raises(ValidationError, match="material"):
            validate(cfg)

    def test_degree_beyond_largest_rule(self):
        # 2N + quad_margin = 108 needs a rule above degree 107; with zero
        # data nothing before assembly would load a rule
        for degree, margin in ((54, 0), (50, 8)):
            cfg = ProblemConfig(
                spheres=single_neumann(degree=degree).spheres,
                background=LameParams(1.0, 1.0), degree=degree, quad_margin=margin)
            with pytest.raises(ValidationError, match="largest Lebedev rule") as err:
                validate(cfg)
            assert len(err.value.errors) == 1
            assert "degree 107" in err.value.errors[0]
            assert "degree 108" in err.value.errors[0]
        # the largest degree the rule allows still validates
        validate(single_neumann(BoundaryData(kind="linear", scale=-1.0), degree=53))

    def test_dense_memory_guard(self, monkeypatch):
        # with the direct solver lattice r5 (22 356 unknowns) needs Nmat and
        # its bordered copy, about 8 GB; lattice r3 needs about 0.3 GB
        monkeypatch.setattr(problem, "available_memory", lambda: 4 * 2**30)
        direct = SolverOptions(method="direct")
        r5 = dataclasses.replace(lattice_config(5), solver=direct)
        r3 = dataclasses.replace(lattice_config(3), solver=direct)
        assert solver_bytes(r5, "dense") == 8 * 22356**2 + 8 * 22362**2
        with pytest.raises(ValidationError, match="memory available") as err:
            validate(r5)
        assert len(err.value.errors) == 1
        assert "the dense system of 22356 unknowns" in err.value.errors[0]
        assert validate(r3) is r3
        # GMRES runs matrix-free: r5's 698 46 x 46 blocks, one per key up to
        # coordinate reflections; 20 bytes per pair (source row, scatter
        # value and column) and the scatter row pointers of 88 classes; the
        # work arrays of a product, two (8 M, 46) arrays of M = 486 spheres
        # and two of the largest class, 11 712 pairs; and a Krylov basis
        # of 51 bordered vectors: 39 MB.  It passes at 1 GiB
        def matrix_free(spheres, keys, pairs, classes, largest, n):
            return (8 * keys * 46**2 + 20 * pairs + 4 * (8 * spheres + 1) * classes
                    + 8 * 46 * (2 * 8 * spheres + 2 * largest) + 8 * 51 * (n + 6))

        for radius, case in ((2, (28, 42, 756, 12, 144, 1288)), (3, (94, 150, 8742, 25, 1440, 4324)),
                             (5, (486, 698, 235710, 88, 11712, 22356))):
            assert solver_bytes(lattice_config(radius), "matrix_free") == matrix_free(*case)
        validate(lattice_config(5))
        monkeypatch.setattr(problem, "available_memory", lambda: 2**30)
        validate(lattice_config(5))
        # GMRES on the dense system (the lattice cost study) holds Nmat too
        assert solver_bytes(lattice_config(5), "dense") == 8 * 22356**2 + 8 * 51 * 22362
        with pytest.raises(ValidationError, match="the dense system of 22356 unknowns"):
            validate(lattice_config(5), product="dense")
        # 32 MiB is below the 39 MB charged (tracemalloc: 18.7 MB held and an
        # 11.8 MB product peak, plus the Krylov basis)
        monkeypatch.setattr(problem, "available_memory", lambda: 2**25)
        with pytest.raises(ValidationError, match="the operator of 22356 unknowns"):
            validate(lattice_config(5))

    def test_available_memory(self):
        have = available_memory()
        assert have is None or have > 0

    def test_refusal_against_mem_available(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8220000 kB\nMemAvailable:    6291456 kB\n")
        monkeypatch.setattr(problem, "_MEMINFO", str(meminfo))
        monkeypatch.setattr(problem, "_CGROUP_LIMITS", ())
        assert problem._mem_available() == available_memory() == 6 * 2**30
        direct = SolverOptions(method="direct")
        # lattice r5 holds one class: Nmat and its float64 bordered copy,
        # 7.45 GiB, more than the 6 GiB available
        r5 = dataclasses.replace(lattice_config(5), solver=direct)
        with pytest.raises(ValidationError, match="needs about 7.45 GiB with the direct solver"):
            validate(r5)
        # the three spheres at N=48 hold 216 classes in their axis frame, two
        # per order |m| >= 1 of 9 (49 - |m|) unknowns, and 291 and 144 at
        # |m| = 0: 50 MB of blocks, and the float64 bordered block of the
        # largest class, 0.048 GiB in all, where one class would be 6.96 GiB
        n48 = dataclasses.replace(three_sphere_config(48), solver=direct)
        sizes = [291, 144] + [9 * (49 - m) for m in range(1, 49) for _ in range(2)]
        charge = solver_bytes(n48, "dense")
        assert charge == sum(8 * m * m for m in sizes) + 8 * (432 + 6) ** 2
        assert 0.048 < charge / 2**30 < 0.049
        assert validate(n48) is n48
        # a file that cannot be read: physical RAM
        monkeypatch.setattr(problem, "_MEMINFO", str(tmp_path / "missing"))
        assert problem._mem_available() is None
        assert available_memory() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    def test_sign_bookkeeping(self):
        cfg = three_sphere_config(3)
        signs = [s.sign for s in cfg.spheres]
        assert signs.count(-1) == 1
        assert cfg.enclosing.sign == -1

    def test_net_load_warning(self):
        data = BoundaryData(kind="coeffs", coeffs=((1, 1, int(Family.W), 1.0),))
        cfg = single_neumann(data)
        with pytest.warns(UserWarning, match="net force"):
            validate(cfg)


class TestSphereGaps:
    def test_matches_pair_loop(self):
        cfg = lattice_config(2.0)
        inner = [s for s in cfg.spheres if not s.enclosing]
        outer = cfg.enclosing
        enclosing = [outer.frame.radius - np.linalg.norm(s.frame.center_array
                                                         - outer.frame.center_array)
                     - s.frame.radius for s in inner]
        pairs, gaps = [], []
        for i, a in enumerate(inner):
            for b in inner[i + 1:]:
                pairs.append([a.id, b.id])
                gaps.append(np.linalg.norm(a.frame.center_array - b.frame.center_array)
                            - a.frame.radius - b.frame.radius)
        got_ids, got_enclosing, got_pairs, got_gaps = sphere_gaps(cfg)
        assert got_ids.tolist() == [s.id for s in inner]
        assert got_pairs.tolist() == pairs
        assert_allclose(got_enclosing, enclosing, rtol=0.0, atol=1e-14)
        assert_allclose(got_gaps, gaps, rtol=0.0, atol=1e-14)
        assert minimum_gap(cfg) == pytest.approx(min(enclosing + gaps), rel=0.0, abs=1e-14)

    def test_single_sphere_has_no_gap(self):
        ids, enclosing, pairs, gaps = sphere_gaps(single_neumann())
        assert ids.size == enclosing.size == gaps.size == 0 and pairs.shape == (0, 2)
        assert minimum_gap(single_neumann()) == np.inf


class TestBuildSigma:
    def test_radial_monopole(self):
        cfg = single_neumann(BoundaryData(kind="linear", scale=-1.0))
        sigma = build_sigma(cfg)[1]
        assert sigma.get(0, 0, Family.V) == pytest.approx(2 * SQPI, rel=1e-12)
        rest = sigma.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_zero_data(self):
        cfg = three_sphere_config(3)
        sigma = build_sigma(cfg)
        assert np.all(sigma[1].coeffs == 0.0)

    def test_linearity(self):
        d1 = BoundaryData(kind="linear", scale=-1.0)
        d2 = BoundaryData(kind="linear", scale=-2.0)
        s1 = build_sigma(single_neumann(d1))[1]
        s2 = build_sigma(single_neumann(d2))[1]
        assert_allclose(s2.coeffs, 2 * s1.coeffs, atol=1e-14)

    def test_piecewise_has_slow_decay(self):
        cfg = single_neumann(BoundaryData(kind="piecewise_sign", vector=(1.0, 0, 0)),
                             degree=8)
        sigma = build_sigma(cfg)[1]
        low = np.abs(sigma.coeffs[: 9]).max()
        high = np.abs(sigma.coeffs[49:]).max()
        assert low > 0.1
        assert high > 1e-4  # discontinuous data keeps significant high content

    def test_one_basis_pass_for_all_spheres(self, monkeypatch):
        # the weighted rows depend only on the rule and the degree: each
        # block of nodes is evaluated once for every projected sphere, and
        # each sphere's moments are those of its own projection
        cfg = three_sphere_config(8)
        rule = cfg.rule()
        monkeypatch.setattr(harmonics, "_CACHED_BASIS_BYTES", 0)
        monkeypatch.setattr(harmonics, "_PROJECT_BLOCK_BYTES", 2**16)
        loaded = [s for s in cfg.spheres if not s.data.is_zero()]
        expected = {s.id: harmonics.project(s.data, s.frame, 8, rule) for s in loaded}
        nodes = []
        original = harmonics.weighted_rows

        def counting(points, weights, max_degree):
            nodes.append(len(points))
            return original(points, weights, max_degree)

        monkeypatch.setattr(harmonics, "weighted_rows", counting)
        sigma = build_sigma(cfg, 8, rule)
        assert len(loaded) == 2 and len(nodes) > 1 and sum(nodes) == rule.size
        assert list(sigma) == [s.id for s in cfg.spheres]
        for s in loaded:
            assert sigma[s.id].sphere_id == s.id
            assert np.array_equal(sigma[s.id].coeffs, expected[s.id].coeffs)

    def test_coeff_data_passthrough_and_truncation(self):
        data = BoundaryData(kind="coeffs",
                            coeffs=((2, -1, int(Family.X), 0.7), (9, 0, 0, 5.0)))
        cfg = single_neumann(data, degree=3)
        sigma = build_sigma(cfg)[1]
        assert sigma.get(2, -1, Family.X) == 0.7
        assert sigma.max_degree == 3  # the l=9 entry is Galerkin-truncated


class TestJsonRoundtrip:
    def test_roundtrip(self, tmp_path):
        cfg = three_sphere_config(5, "piecewise")
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)
        assert loaded.spheres[0].material == cfg.spheres[0].material
        assert loaded.quad_margin == cfg.quad_margin

    def test_schema_fields(self):
        d = config_to_dict(three_sphere_config(4))
        assert set(d) == {"background", "degree", "quad_margin", "solver", "spheres"}
        assert {"mu", "lambda"} <= set(d["background"])
        sphere = d["spheres"][0]
        assert {"id", "center", "radius", "role", "enclosing", "data"} <= set(sphere)

    def test_unknown_data_kind(self):
        with pytest.raises(ValueError, match="unknown data kind"):
            BoundaryData(kind="mystery")

    def test_from_dict_solver_options(self):
        d = config_to_dict(three_sphere_config(4))
        d["solver"] = {"method": "iterative", "tol": 1e-8, "max_iter": 50}
        cfg = config_from_dict(d)
        assert cfg.solver.method == "iterative"
        assert cfg.solver.tol == 1e-8

    @pytest.mark.parametrize("field,value", [("max_iter", 0), ("restart", 0), ("restart", -1)])
    def test_solver_budget_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match="max_iter and restart must be at least 1"):
            SolverOptions(method="iterative", **{field: value})
        d = config_to_dict(three_sphere_config(4))
        d["solver"] = {"method": "iterative", field: value}
        with pytest.raises(ValueError, match="at least 1"):
            config_from_dict(d)
