import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lstsq, null_space

from elastisph import harmonics
from elastisph import system as system_module
from elastisph.harmonics import Family, VshExpansion, sh_index
from elastisph.materials import LameParams
from elastisph.presets import lattice_config, one_sphere_config, three_sphere_config
from elastisph.problem import BoundaryData, ProblemConfig, SphereSpec, validate
from elastisph.quadrature import SphereFrame
from elastisph.spectra import MODE_AS_PRINTED, MODE_SELF_CONSISTENT, adjoint_double_eigs, single_layer_eigs
from elastisph.system import (
    DofMap,
    SolverError,
    _gauge_project,
    apply_operator,
    assemble,
    c_coefficient,
    rigid_trace_vectors,
    solve_direct,
    solve_iterative,
)

P11 = LameParams(1.0, 1.0)


class TestDofMap:
    def test_counts(self):
        dm = DofMap(degree=3, sphere_ids=(1, 2, 3))
        assert dm.modes_per_sphere == 3 * 16 - 2
        assert dm.size == 3 * 46

    def test_expansion_roundtrip(self):
        dm = DofMap(degree=2, sphere_ids=(7, 9))
        rng = np.random.default_rng(2)
        exps = {}
        for sid in (7, 9):
            e = VshExpansion.zeros(sid, 2)
            e.coeffs[:] = rng.normal(size=e.coeffs.shape)
            e.coeffs[0, 1] = e.coeffs[0, 2] = 0.0
            exps[sid] = e
        vec = dm.insert(exps)
        for pos, sid in enumerate((7, 9)):
            back = dm.expansion(vec, pos)
            assert_allclose(back.coeffs, exps[sid].coeffs)


class TestCCoefficient:
    def test_neumann_inner_sphere(self):
        sphere = SphereSpec(id=1, frame=SphereFrame((0.0, 0, 0), 0.5), role="neumann")
        val = c_coefficient(sphere, P11, 1, Family.V)
        assert val == pytest.approx((0.5 - 1 / 6) * 9, rel=1e-14)

    def test_enclosing_w_mode(self):
        sphere = SphereSpec(id=1, frame=SphereFrame((0.0, 0, 0), 2.0), role="neumann",
                            enclosing=True)
        val = c_coefficient(sphere, P11, 1, Family.W)
        assert val == pytest.approx(9 / 7, rel=1e-14)

    def test_identical_materials_vanish(self):
        sphere = SphereSpec(id=1, frame=SphereFrame((0.0, 0, 0), 0.5), role="transmission",
                            material=P11)
        for ell in range(6):
            fams = (Family.V,) if ell == 0 else tuple(Family)
            for k in fams:
                assert c_coefficient(sphere, P11, ell, k) == pytest.approx(0.0, abs=1e-15)

    def test_toroidal_mode_sensitivity(self):
        # contrasting materials couple differently in the two modes
        sphere = SphereSpec(id=1, frame=SphereFrame((0.0, 0, 0), 0.5), role="transmission",
                            material=LameParams(10.0, 10.0))
        sc = c_coefficient(sphere, P11, 1, Family.X, MODE_SELF_CONSISTENT)
        ap = c_coefficient(sphere, P11, 1, Family.X, MODE_AS_PRINTED)
        assert sc != pytest.approx(ap)
        # as printed, tau3_K*/tau3_V = 1/2 for every material, so the
        # operator reduces to the half-difference of the inverses
        t0 = single_layer_eigs(1, P11)[2]
        t1 = single_layer_eigs(1, LameParams(10.0, 10.0))[2]
        assert ap == pytest.approx(0.5 * (1 / t0 - 1 / t1), rel=1e-13)


class TestAssembly:
    def test_one_sphere_diagonal_closure(self):
        cfg = validate(one_sphere_config(1, 3))
        system = assemble(cfg)
        off = system.Nmat - np.diag(np.diag(system.Nmat))
        assert np.max(np.abs(off)) == 0.0
        sol = solve_direct(system, cfg)
        sigma = system.sigma[1]
        nu = sol.trace(1)
        for ell in range(4):
            tau = single_layer_eigs(ell, P11)
            tk = adjoint_double_eigs(ell, P11)
            for k in ((0,) if ell == 0 else (0, 1, 2)):
                den = 0.5 + tk[k]
                if abs(den) < 1e-12:
                    continue
                for p in range(ell * ell, (ell + 1) ** 2):
                    expected = tau[k] / den * sigma.coeffs[p, k]
                    assert nu.coeffs[p, k] == pytest.approx(expected, abs=1e-13)

    def test_identical_material_block_vanishes(self):
        cfg = ProblemConfig(
            spheres=(
                SphereSpec(id=1, frame=SphereFrame((1.0, 0, 0), 0.1), role="transmission",
                           material=P11, data=BoundaryData(kind="zero")),
                SphereSpec(id=2, frame=SphereFrame((0.0, 0, 0), 2.0), role="neumann",
                           enclosing=True, data=BoundaryData(kind="linear", scale=-0.5)),
            ),
            background=P11, degree=3)
        validate(cfg)
        system = assemble(cfg)
        n = system.dofmap.modes_per_sphere
        assert np.max(np.abs(system.Nmat[:, :n])) == 0.0  # columns of sphere 1
        assert np.max(np.abs(system.Nmat[:n, :n])) == 0.0

    def test_diagonal_block_no_toroidal_coupling(self):
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        dm = system.dofmap
        mask = dm.active_mask()
        labels = [(p // 3, p % 3) for p in range(3 * 16)]
        active = [lab for lab, keep in zip(labels, mask) if keep]
        for pos in range(3):
            sl = dm.sphere_slice(pos)
            block = system.Nmat[sl, sl]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) == 0.0

    def test_rule_too_weak(self):
        from elastisph.quadrature import rule_for_degree

        cfg = validate(one_sphere_config(1, 4))
        with pytest.raises(ValueError, match="below 2"):
            assemble(cfg, rule=rule_for_degree(6))

    def test_radius_covariance(self):
        # scaling all centers and radii leaves N invariant and scales the
        # F rows by their explicit radius factors
        data = BoundaryData(kind="coeffs", coeffs=((1, 0, 0, 0.8), (2, 1, 1, -0.3)))
        def cfg_at(scale):
            return validate(ProblemConfig(
                spheres=(
                    SphereSpec(id=1, frame=SphereFrame((scale, 0, 0), 0.2 * scale),
                               role="neumann", data=data),
                    SphereSpec(id=2, frame=SphereFrame((0.0, 0, 0), 2.0 * scale),
                               role="neumann", enclosing=True, data=data),
                ),
                background=P11, degree=3))

        s1 = assemble(cfg_at(1.0))
        s2 = assemble(cfg_at(2.0))
        assert np.max(np.abs(s1.Nmat - s2.Nmat)) < 1e-12 * np.max(np.abs(s1.Nmat))
        # with identical coefficient data the radius factors double every F row
        assert_allclose(s2.F, 2.0 * s1.F, atol=1e-12)


class TestMatvec:
    def test_matches_dense(self):
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        rng = np.random.default_rng(5)
        lam = rng.normal(size=system.dofmap.size)
        mv = apply_operator(cfg, lam)
        dense = system.matrix @ lam
        assert np.max(np.abs(mv - dense)) < 1e-13 * max(1.0, np.max(np.abs(dense)))

    def test_zero_vector(self):
        cfg = validate(three_sphere_config(2))
        assert_allclose(apply_operator(cfg, np.zeros(DofMap(2, (1, 2, 3)).size)), 0.0)

    def test_unit_vector_column(self):
        cfg = validate(three_sphere_config(2))
        system = assemble(cfg)
        e = np.zeros(system.dofmap.size)
        e[17] = 1.0
        assert_allclose(apply_operator(cfg, e), system.matrix[:, 17], atol=1e-13)

    def test_rule_too_weak(self):
        from elastisph.quadrature import rule_for_degree

        cfg = validate(lattice_config(1))
        lam = np.ones(DofMap(cfg.degree, (1, 2)).size)
        with pytest.raises(ValueError, match="below 2"):
            apply_operator(cfg, lam, rule=rule_for_degree(3))

    def test_wrong_length(self):
        cfg = validate(lattice_config(1))
        size = DofMap(cfg.degree, (1, 2)).size
        with pytest.raises(ValueError, match=f"dofmap.size = {size}"):
            apply_operator(cfg, np.ones(size - 3))


def _chunking_configs():
    table3 = three_sphere_config(3)
    return [
        validate(table3),  # transmission, Neumann cavity, enclosing source
        # enclosing sphere first: its 'in'-side nodes lead the mixed chunks
        validate(dataclasses.replace(table3, spheres=table3.spheres[::-1])),
        validate(lattice_config(1)),
    ]


def _assert_product_matches_dense(cfg, mode):
    dense = assemble(cfg, mode=mode)
    lam = np.random.default_rng(11).normal(size=dense.dofmap.size)
    expected = dense.D * lam - dense.Nmat @ lam
    mv = apply_operator(cfg, lam, mode=mode)
    assert np.max(np.abs(mv - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))


class TestPairBlocks:
    def test_chunk_of_one_pair_matches_default(self, monkeypatch):
        for cfg in _chunking_configs():
            for mode in (MODE_SELF_CONSISTENT, MODE_AS_PRINTED):
                batched = assemble(cfg, mode=mode)
                lam = np.random.default_rng(3).normal(size=batched.dofmap.size)
                with monkeypatch.context() as m:
                    m.setattr(system_module, "_CHUNK_BYTES", 1)
                    single = assemble(cfg, mode=mode)
                    mv = apply_operator(cfg, lam, mode=mode)
                # chunks change only the blocking of the products
                assert_allclose(single.Nmat, batched.Nmat, rtol=0,
                                atol=1e-15 * np.abs(batched.Nmat).max())
                assert_allclose(single.F, batched.F, rtol=0, atol=1e-15 * np.abs(batched.F).max())
                dense = batched.D * lam - batched.Nmat @ lam
                assert np.max(np.abs(mv - dense)) < 1e-13 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("cfg", [
        lattice_config(1), lattice_config(2), lattice_config(3),
        # no key repeats here
        dataclasses.replace(three_sphere_config(3), spheres=three_sphere_config(3).spheres[::-1]),
    ], ids=["lattice_r1", "lattice_r2", "lattice_r3", "table3_n3_reversed"])
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_distinct_key_product_matches_dense(self, cfg, mode):
        _assert_product_matches_dense(validate(cfg), mode)

    @pytest.mark.parametrize("variant", ["alternating_materials", "neumann_cavity"])
    def test_shared_key_sources_with_different_c(self, variant):
        # pairs with one key apply one block to sources whose C differ
        lattice = lattice_config(2)
        inclusions = list(lattice.spheres[:-1])
        if variant == "alternating_materials":
            inclusions[::2] = [dataclasses.replace(s, material=LameParams(3.0, 0.5))
                               for s in inclusions[::2]]
        else:
            inclusions[5] = dataclasses.replace(inclusions[5], role="neumann", material=None)
        cfg = validate(dataclasses.replace(lattice, spheres=(*inclusions, lattice.spheres[-1])))
        _assert_product_matches_dense(cfg, MODE_SELF_CONSISTENT)

    def test_one_block_per_distinct_key(self, monkeypatch):
        cfg = validate(lattice_config(2))
        blocks = []
        original = system_module._chunk_blocks

        def counting(*args):
            raw = original(*args)
            blocks.append(len(raw))
            return raw

        monkeypatch.setattr(system_module, "_chunk_blocks", counting)
        apply_operator(cfg, np.ones(system_module._dofmap(cfg).size))
        assert sum(blocks) == 178  # of 756 ordered pairs
        blocks.clear()
        assemble(cfg)
        assert sum(blocks) == 756

    def test_basis_evaluations_per_assembly(self, monkeypatch):
        # one basis evaluation per target and chunk of sources, plus the
        # test basis and the data projection; one per pair would be 758
        cfg = validate(lattice_config(2))
        calls = []
        original = harmonics.vsh_basis

        def counting(points, max_degree):
            calls.append(len(points))
            return original(points, max_degree)

        monkeypatch.setattr(harmonics, "vsh_basis", counting)
        monkeypatch.setattr(system_module, "vsh_basis", counting)
        assemble(cfg)
        M = len(cfg.spheres)
        assert M == 28
        assert len(calls) <= 2 * M + 2


class TestRigidModes:
    def test_null_vectors(self):
        cfg = validate(three_sphere_config(4))
        for mode, expected_dim in ((MODE_SELF_CONSISTENT, 6), (MODE_AS_PRINTED, 3)):
            system = assemble(cfg, mode=mode)
            Z = rigid_trace_vectors(cfg, system.dofmap, mode)
            assert Z.shape[1] == expected_dim
            resid = np.abs(system.matrix @ Z).max()
            assert resid < 1e-12 * np.abs(system.matrix).max()

    def test_span_projected_rigid_motions(self):
        # traces of u(x) = a + omega x x, projected sphere by sphere, lie in
        # the span of the returned basis, and fill it
        from elastisph.harmonics import project
        from elastisph.quadrature import rule_for_degree

        cfg = validate(three_sphere_config(4))
        dm = DofMap(4, tuple(s.id for s in cfg.spheres))
        rule = rule_for_degree(8)
        Z = rigid_trace_vectors(cfg, dm, MODE_SELF_CONSISTENT)
        motions = [lambda x, a=a: np.broadcast_to(np.eye(3)[a], x.shape) for a in range(3)]
        motions += [lambda x, a=a: np.cross(np.eye(3)[a], x) for a in range(3)]
        P = np.stack([
            dm.insert({s.id: project(u, s.frame, 4, rule) for s in cfg.spheres})
            for u in motions
        ], axis=1)
        assert_allclose(Z @ (Z.T @ P), P, atol=1e-13)
        assert np.linalg.matrix_rank(P, tol=1e-10) == 6
        assert_allclose(Z.T @ Z, np.eye(6), atol=1e-14)

    def test_solution_gauge_orthogonality(self):
        cfg = validate(three_sphere_config(4))
        system = assemble(cfg)
        sol = solve_direct(system, cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        proj = Z.T @ (system.D * sol.lambda_)
        assert np.abs(proj).max() < 1e-10 * np.linalg.norm(sol.lambda_)


class TestSolvers:
    def test_direct_vs_iterative(self):
        # N chosen high enough that the data-aliasing consistency floor
        # (~1e-9 at N=8) sits below the agreement tolerance
        cfg = validate(three_sphere_config(8))
        system = assemble(cfg)
        sd = solve_direct(system, cfg)
        si = solve_iterative(system, cfg, tol=1e-12, max_iter=60)
        dw = np.sqrt(system.D)
        rel = np.linalg.norm(dw * (sd.lambda_ - si.lambda_)) / np.linalg.norm(dw * sd.lambda_)
        assert rel < 1e-8
        assert si.iterations is not None and si.iterations > 0

    def test_zero_rhs(self):
        cfg = validate(one_sphere_config(1, 2))
        system = assemble(cfg)
        system.F[:] = 0.0
        sol = solve_direct(system, cfg)
        assert_allclose(sol.lambda_, 0.0, atol=1e-14)

    def test_diagnostics_rank(self):
        cfg = validate(one_sphere_config(1, 2))
        sol = solve_direct(assemble(cfg), cfg)
        assert sol.diagnostics["null_dim"] == 6  # translations + rotations

    def test_iteration_counts_lattice(self):
        for radius, expected in ((1, 2), (2, 28)):
            cfg = validate(lattice_config(radius))
            assert len(cfg.spheres) == expected
            system = assemble(cfg)
            sol = solve_iterative(system, cfg, tol=1e-6, row_scale=True)
            assert sol.residual < 1e-5


def _gelsy_oracle(system, Z):
    """Rank-revealing QR least squares plus gauge projection, and the
    relative remainder it leaves."""
    A = system.matrix
    x = _gauge_project(lstsq(A, system.F, lapack_driver="gelsy")[0], Z, system.D)
    return x, np.linalg.norm(A @ x - system.F) / np.linalg.norm(system.F)


class TestBorderedLU:
    @pytest.mark.parametrize("cfg", [three_sphere_config(3), three_sphere_config(8),
                                     lattice_config(1)], ids=["table3_n3", "table3_n8", "lattice_r1"])
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_agrees_with_gelsy(self, cfg, mode):
        cfg = validate(cfg)
        system = assemble(cfg, mode=mode)
        Z = rigid_trace_vectors(cfg, system.dofmap, mode)
        expected, remainder = _gelsy_oracle(system, Z)
        sol = solve_direct(system, cfg)
        dw = np.sqrt(system.D)
        assert np.linalg.norm(dw * (sol.lambda_ - expected)) < 1e-12 * np.linalg.norm(dw * expected)
        diag = sol.diagnostics
        n, k = system.dofmap.size, Z.shape[1]
        assert diag["solver_path"] == "bordered_lu"
        assert (diag["rank"], diag["null_dim"]) == (n - k, k)
        assert 1e-13 < diag["rcond"] <= 1.0
        floor = diag["consistency_floor"]
        if remainder > 1e-12:
            assert abs(floor - remainder) <= 1e-10 * remainder
        else:
            # a compatible load: both measure rounding only
            assert floor < 1e-14
        assert sol.residual == pytest.approx(floor, rel=1e-6, abs=1e-14)

    def test_extra_null_vector_raises(self):
        # A' = A - (A v) v^T / v^T v annihilates v; with v orthogonal to the
        # orthonormal Z it keeps A' Z = A Z = 0, so null(A') exceeds span Z
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        v = np.random.default_rng(7).normal(size=system.dofmap.size)
        v -= Z @ (Z.T @ v)
        system.Nmat += np.outer(system.matrix @ v, v) / (v @ v)
        assert np.abs(system.matrix @ Z).max() < 1e-12 * np.abs(system.matrix).max()
        with pytest.raises(SolverError, match="rcond"):
            solve_direct(system, cfg)

    def test_incompatible_load_raises(self):
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        left_null = null_space(system.matrix.T)[:, 0]
        system.F += 1e-2 * np.linalg.norm(system.F) * left_null
        with pytest.raises(SolverError, match="incompatible"):
            solve_direct(system, cfg)

    def test_one_bordered_allocation(self):
        cfg = validate(three_sphere_config(8))
        system = assemble(cfg)
        solve_direct(system, cfg)  # rule, spectra and LAPACK set-up
        tracemalloc.start()
        try:
            sol = solve_direct(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bordered = 8 * (system.dofmap.size + sol.diagnostics["null_dim"]) ** 2
        assert bordered < peak < 2 * bordered

