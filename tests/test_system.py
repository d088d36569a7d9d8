import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.linalg import lstsq, null_space

from elastisph import harmonics
from elastisph import system as system_module
from elastisph.harmonics import Family, VshExpansion, sh_index, vsh_basis
from elastisph.materials import LameParams
from elastisph.presets import (SWEEP_NU1_MIN, lattice_config, one_sphere_config, poisson_sweep_config,
                               three_sphere_config)
from elastisph.problem import BoundaryData, ProblemConfig, SphereSpec, validate
from elastisph.quadrature import LEBEDEV_TABLE, SphereFrame, rule_for_degree
from elastisph.spectra import (MODE_AS_PRINTED, MODE_SELF_CONSISTENT, adjoint_double_eigs, single_layer_eigs,
                               single_layer_matrix)
from elastisph.system import (
    ClassBlocks,
    DofMap,
    SolverError,
    _gauge_project,
    _product,
    apply_operator,
    assemble,
    c_coefficient,
    CouplingOperator,
    coupling_operator,
    rigid_trace_vectors,
    solve,
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
        N = system.Nmat.toarray()
        off = N - np.diag(np.diag(N))
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
        N = system.Nmat.toarray()
        assert np.max(np.abs(N[:, :n])) == 0.0  # columns of sphere 1
        assert np.max(np.abs(N[:n, :n])) == 0.0

    def test_diagonal_block_no_toroidal_coupling(self):
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        dm = system.dofmap
        mask = dm.active_mask()
        labels = [(p // 3, p % 3) for p in range(3 * 16)]
        active = [lab for lab, keep in zip(labels, mask) if keep]
        N = system.Nmat.toarray()
        for pos in range(3):
            sl = dm.sphere_slice(pos)
            block = N[sl, sl]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) == 0.0

    def test_matrix_is_one_array(self):
        cfg = validate(three_sphere_config(4))
        system = assemble(cfg)
        tracemalloc.start()
        try:
            A = system.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_allclose(A, np.diag(system.D) - system.Nmat.toarray(), rtol=0.0, atol=0.0)
        assert peak < 1.5 * A.nbytes

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
        N1, N2 = s1.Nmat.toarray(), s2.Nmat.toarray()
        assert np.max(np.abs(N1 - N2)) < 1e-12 * np.max(np.abs(N1))
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
                    operator = CouplingOperator(cfg, cfg.rule(), mode)
                mv = operator.D * lam - operator.coupling(lam)
                # chunks change only the blocking of the products
                N = batched.Nmat.toarray()
                assert_allclose(single.Nmat.toarray(), N, rtol=0, atol=1e-15 * np.abs(N).max())
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
        original = system_module._pair_blocks

        def counting(*args):
            for chunk in original(*args):
                blocks.append(chunk[3].shape[-1])
                yield chunk

        monkeypatch.setattr(system_module, "_pair_blocks", counting)
        CouplingOperator(cfg, cfg.rule(), MODE_SELF_CONSISTENT)
        assert sum(blocks) == 42  # of 756 ordered pairs
        blocks.clear()
        assemble(cfg)
        assert sum(blocks) == 756

    def test_held_blocks_across_products(self, monkeypatch):
        cfg = validate(lattice_config(2))
        lam = np.random.default_rng(4).normal(size=system_module._dofmap(cfg).size)
        blocks = []
        original = system_module._pair_blocks

        def counting(*args):
            for chunk in original(*args):
                blocks.append(chunk[3].shape[-1])
                yield chunk

        monkeypatch.setattr(system_module, "_pair_blocks", counting)
        coupling_operator.cache_clear()
        first = apply_operator(cfg, lam)
        assert sum(blocks) == 42
        blocks.clear()
        second = apply_operator(cfg, lam)
        assert blocks == []
        assert np.array_equal(first, second)
        operator = coupling_operator(cfg, cfg.rule(), MODE_SELF_CONSISTENT)
        assert operator.blocks.shape == (42, 46, 46)
        assert not operator.blocks.flags.writeable
        assert blocks == []
        # another mode builds its own blocks and replaces the held ones
        apply_operator(cfg, lam, mode=MODE_AS_PRINTED)
        assert sum(blocks) == 42
        assert coupling_operator.cache_info().currsize == 1

    @pytest.mark.parametrize("cfg", [
        lattice_config(1), lattice_config(2), three_sphere_config(3),
        dataclasses.replace(three_sphere_config(3), spheres=three_sphere_config(3).spheres[::-1]),
    ], ids=["lattice_r1", "lattice_r2", "table3_n3", "table3_n3_reversed"])
    def test_operator_load_matches_assembly(self, cfg):
        cfg = validate(cfg)
        dense = assemble(cfg)
        operator = CouplingOperator(cfg, cfg.rule(), MODE_SELF_CONSISTENT)
        assert np.abs(operator.F - dense.F).max() <= 1e-13 * np.abs(dense.F).max()

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


def _raw_blocks(cfg, rule, dofmap, targets, sources):
    """The raw blocks of the given pairs, (pairs, n_a, n_a), each made whole
    from the class parts ``_pair_blocks`` generates: zero between classes."""
    out = []
    for _ipos, _jpos, stack, raw in system_module._pair_blocks(cfg, rule, dofmap, targets, sources):
        whole = np.zeros((raw.shape[-1], dofmap.modes_per_sphere, dofmap.modes_per_sphere))
        for modes, part in zip(stack.classes, raw):
            whole[:, modes[:, None], modes] = part[:modes.size, :modes.size].transpose(2, 0, 1)
        out.append(whole)
    return np.concatenate(out)


_LAYOUT_CONFIGS = pytest.mark.parametrize("cfg", [
    lattice_config(1), lattice_config(2), lattice_config(3), three_sphere_config(3),
], ids=["lattice_r1", "lattice_r2", "lattice_r3", "table3_n3"])


def _patterns(cfg, targets, sources):
    """Reflection pattern of each pair: bit a set where (x_tgt - x_src)_a < 0,
    in the configuration's frame (a collinear one's axis frame)."""
    centers = system_module._geometry(cfg)[0]
    return ((centers[targets] - centers[sources] < 0) * [1, 2, 4]).sum(axis=1)


def _global_blocks(cfg, blocks):
    """Blocks (pairs, n_a, n_a) of a collinear configuration's axis frame
    turned to the global basis, R^T B R; others as they are."""
    frame = system_module._frame(cfg)
    if frame is None:
        return blocks
    turned = np.stack([frame.turn(b, back=True) for b in blocks])
    return np.stack([frame.turn(b.T, back=True).T for b in turned])


def _reflection_diagonal(rule, degree, flip):
    """H over the canonical modes, read from the basis at the reflected
    nodes: the sign h of F(R s) = h R F(s), as its Galerkin moment."""
    basis, reflected = vsh_basis(rule.points, degree), vsh_basis(rule.points * flip, degree)
    moments = [np.einsum("t,ptc,ptc->p", rule.weights, reflected.family(f), basis.family(f) * flip)
               for f in Family]
    return np.sign(np.stack(moments, axis=1)).reshape(-1)


_COORDS = st.sampled_from([-0.6, -0.3, 0.0, 0.3, 0.6])


class TestReflectedBlocks:
    @settings(max_examples=30, deadline=None)
    @given(centers=st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=3, unique=True),
           radius=st.sampled_from([0.05, 0.1]), degree=st.integers(1, 4), pattern=st.integers(1, 7))
    # collinear configurations, made in their axis frames and compared in the
    # global basis, with flips that move the line and ones that do not
    @example(centers=[(0.3, 0.0, 0.0), (-0.6, 0.0, 0.0)], radius=0.1, degree=4, pattern=5)
    @example(centers=[(0.0, -0.3, 0.0)], radius=0.05, degree=3, pattern=6)
    @example(centers=[(0.0, 0.0, 0.6)], radius=0.1, degree=2, pattern=3)
    def test_reflected_geometry_gives_the_signed_block(self, centers, radius, degree, pattern):
        # inclusions of one radius (0.3 apart at least) in an enclosing sphere,
        # whose pairs take the 'in' side; every center is reflected
        inclusions = [SphereSpec(id=i + 1, frame=SphereFrame(c, radius), role="transmission",
                                 material=LameParams(2.0, 1.5)) for i, c in enumerate(centers)]
        enclosing = SphereSpec(id=len(centers) + 1, frame=SphereFrame((0.0, 0.0, 0.0), 2.0),
                               role="neumann", enclosing=True)
        cfg = ProblemConfig(spheres=(*inclusions, enclosing), background=P11, degree=degree)
        flip = np.array([-1.0 if pattern >> axis & 1 else 1.0 for axis in range(3)])
        reflected = dataclasses.replace(cfg, spheres=tuple(
            dataclasses.replace(s, frame=SphereFrame(tuple(flip * s.frame.center), s.frame.radius))
            for s in cfg.spheres))
        rule, dofmap = cfg.rule(), system_module._dofmap(cfg)
        pairs = system_module._ordered_pairs(cfg)
        blocks, mirrored = (_global_blocks(c, _raw_blocks(c, rule, dofmap, *pairs)) for c in (cfg, reflected))
        h = _reflection_diagonal(rule, degree, flip)[dofmap.active_mask()]
        expected = h[:, None] * blocks * h
        assert np.all(np.abs(mirrored - expected).max(axis=(1, 2)) <= 1e-14 * np.abs(blocks).max(axis=(1, 2)))


# a displacement with no zero component; each axis pattern zeroes some of it
_FOLD_D = np.array([0.8, -0.9, 0.7])


def _pair_config(axes, side):
    """Two spheres whose displacement d = x_tgt - x_src is zero exactly on
    the axes of the pattern: the source is the radius-2 enclosing sphere
    ('in' side) or a radius-0.1 inclusion ('out' side)."""
    d = np.where([axes >> a & 1 for a in range(3)], 0.0, _FOLD_D)
    target = SphereSpec(id=1, frame=SphereFrame(tuple(d), 0.2), role="neumann")
    source = SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 2.0 if side == "in" else 0.1),
                        role="neumann", enclosing=side == "in")
    return ProblemConfig(spheres=(target, source), background=P11, degree=1)


def _orders(degree):
    """|m| of each active mode."""
    ells = harmonics.per_degree(np.arange(degree + 1))
    return np.repeat(np.abs(np.arange(ells.size) - ells * ells - ells), 3)[system_module._active_mask(degree)]


def _folded_and_full(cfg, rule, degree, side):
    """The pair's raw block as ``_pair_blocks`` makes it, whole, and the same
    block summed over every node of the rule with every entry computed, both
    in the configuration's frame, (n_a, n_a) each; and its classes."""
    targets, sources = np.array([0]), np.array([1])
    centers, radii, _enclosing = system_module._geometry(cfg)
    y = centers[0] + radii[0] * rule.points - centers[1]
    dofmap = system_module.DofMap(degree=degree, sphere_ids=(1, 2))
    active = dofmap.active_mask()
    (_, _, stack, _raw), = system_module._pair_blocks(cfg, rule, dofmap, targets, sources)
    (folded,) = _raw_blocks(cfg, rule, dofmap, targets, sources)
    (full,) = system_module._chunk_blocks(
        cfg.background, degree, harmonics.weighted_basis(rule, degree)[active][None], y,
        radii[1:], int(side == "in"), system_module._stack(degree, 0))
    return folded, full[..., 0], stack.classes


class TestFolding:
    @pytest.mark.parametrize("rule_degree", [7, 17, 41])
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_folded_block_matches_full_rule(self, rule_degree, side):
        # a pair on one axis is a collinear configuration, made in its axis
        # frame (pattern 3, x and y, with the rotations about z): there the
        # entries between orders |m| != |m'| of one character are not made,
        # and the full rule's aliasing in them is left out of the comparison
        # (test_dropped_orders_shrink_as_the_rule_grows)
        rule = rule_for_degree(rule_degree)
        for axes in range(8):
            cfg = _pair_config(axes, side)
            pattern = system_module._common_axes(cfg)
            assert ((pattern & system_module._ROTATIONS) != 0) == (axes in (3, 5, 6))
            flips = harmonics.reflection_signs(8)[[1 << a for a in range(3) if pattern >> a & 1]]
            for degree in range(1, 9):
                if axes == 7 and rule.degree < 2 * degree:
                    # a concentric pair takes its closed form, which a rule
                    # integrates exactly from degree 2N on (as ``_check_rule``
                    # asks of every assembly rule)
                    continue
                dofmap = system_module.DofMap(degree=degree, sphere_ids=(1, 2))
                active = dofmap.active_mask()
                folded, full, classes = _folded_and_full(cfg, rule, degree, side)
                scale = np.abs(full).max()
                assert scale > 0.0
                # a mode pair whose signs differ under a flip of the pattern
                signs = flips[:, :3 * (degree + 1) ** 2][:, active]
                odd = (signs[:, :, None] != signs[:, None, :]).any(axis=0)
                assert odd.any() == (axes != 0)
                # and, in an axis frame, one of two orders of one character
                dropped = np.zeros_like(odd)
                if pattern & system_module._ROTATIONS:
                    orders = _orders(degree)
                    dropped = (orders[:, None] != orders[None, :]) & ~odd
                    odd |= dropped
                assert np.abs(folded - full)[~dropped].max() <= 1e-14 * scale
                # the parts are the blocks of the modes of one sign pattern, which
                # hold every mode once: the odd entries are the ones not made
                assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(dofmap.modes_per_sphere))
                made = np.zeros_like(odd)
                for modes in classes:
                    made[modes[:, None], modes] = True
                assert np.array_equal(made, ~odd)

    @pytest.mark.parametrize("side", ["in", "out"])
    def test_dropped_orders_shrink_as_the_rule_grows(self, side):
        # the entries an axis frame does not make are the rule's aliasing
        # between orders m = m' (mod 4), zero for the exact integrals: from an
        # inclusion ('out') they fall as the rule grows, down to rounding; the
        # enclosing sphere's field inside it ('in') is a polynomial that every
        # rule integrates, so they are rounding throughout
        degree = 6
        cfg = _pair_config(6, side)
        orders = _orders(degree)
        largest, made = [], []
        for rule_degree in (13, 17, 23, 31, 41, 59):
            folded, full, _classes = _folded_and_full(cfg, rule_for_degree(rule_degree), degree, side)
            dropped = (orders[:, None] != orders[None, :]) & (folded == 0.0) & (full != 0.0)
            largest.append(np.abs(full[dropped]).max(initial=0.0) / np.abs(full).max())
            made.append(folded)
        if side == "out":
            assert largest[0] > 1e-5
            assert all(b < a for a, b in zip(largest, largest[1:]) if a > 1e-14)
        assert largest[-1] < 1e-14
        # and the entries that are made converge
        assert np.abs(made[-2] - made[-1]).max() < 1e-14 * np.abs(made[-1]).max()

    @pytest.mark.parametrize("rule_degree", [d for d, _count in LEBEDEV_TABLE])
    def test_orbits_cover_the_rule(self, rule_degree):
        # the folding is exact only for a rule that each flip (and, in an axis
        # frame, the mirror x <-> y) maps onto itself, node for node and with
        # equal weights
        rule = rule_for_degree(rule_degree)
        for axes in (*range(1, 8), 3 | system_module._ROTATIONS):
            nodes, orbit = system_module._orbits(rule, axes)
            assert np.isclose((rule.weights[nodes] * orbit).sum(), rule.weights.sum(), rtol=1e-14, atol=0)
            flipped = [a for a in range(3) if axes >> a & 1]
            canonical = rule.points.copy()
            canonical[:, flipped] = np.abs(canonical[:, flipped])
            if axes & system_module._ROTATIONS:
                canonical[:, :2] = np.sort(canonical[:, :2], axis=1)[:, ::-1]
            position = {tuple(rule.points[n]): k for k, n in enumerate(nodes)}
            image = np.array([position[tuple(p)] for p in canonical])
            assert np.array_equal(rule.weights, rule.weights[nodes][image])
            assert np.array_equal(np.bincount(image, minlength=nodes.size), orbit)


class TestMirrorFold:
    def test_nodes_of_rule_41(self):
        # C4v leaves 92 of the 590 nodes, 22 of them on the mirror; the flips
        # alone leave 162
        rule = rule_for_degree(41)
        nodes, _orbit = system_module._orbits(rule, 3 | system_module._ROTATIONS)
        points = rule.points[nodes]
        assert nodes.size == 92 and np.count_nonzero(points[:, 0] == points[:, 1]) == 22
        assert system_module._orbits(rule, 3)[0].size == 162
        assert np.all((points[:, 0] >= points[:, 1]) & (points[:, 1] >= 0.0))

    @pytest.mark.parametrize("degree", [1, 2, 5, 8, 20])
    def test_twins_of_the_stack(self, degree):
        # the mirror maps each even-|m| class onto itself with one sign and
        # swaps the two classes of each odd |m|, as a signed permutation
        stack = system_module._stack(degree, 3 | system_module._ROTATIONS)
        orders = _orders(degree)
        image, signs = harmonics.diagonal_mirror(degree)
        active = system_module._active_mask(degree)
        index = np.cumsum(active) - 1
        for c, (modes, (twin, where, h)) in enumerate(zip(stack.classes, stack.mirror)):
            order = orders[modes[0]]
            assert np.array_equal(np.sort(where), np.arange(modes.size))
            assert np.array_equal(stack.classes[twin][where], index[image[active]][modes])
            assert np.array_equal(h, signs[active][modes])
            if order % 2 == 0:
                assert twin == c and np.array_equal(where, np.arange(modes.size)) and np.all(h == h[0])
            else:
                assert twin != c and orders[stack.classes[twin][0]] == order and stack.mirror[twin][0] == c

    @pytest.mark.parametrize("degree", [8, 20])
    def test_mirror_fold_matches_the_flips_fold(self, degree):
        # each class part of table3 against the same pair folded by the flips
        # alone (the 162 nodes of rule 41 with their orbit sizes, one padded
        # product per flip class), on the entries that are made
        cfg = validate(three_sphere_config(degree))
        rule, dofmap = cfg.rule(), system_module._dofmap(cfg)
        centers, radii, enclosing = system_module._geometry(cfg)
        nodes, rows, flips = system_module._folded_table(rule, degree, 3)
        for i, j in zip(*system_module._ordered_pairs(cfg)):
            (_, _, stack, raw), = system_module._pair_blocks(cfg, rule, dofmap, np.array([i]), np.array([j]))
            assert stack.mirror
            y = centers[i] + radii[i] * rule.points[nodes] - centers[j]
            parts = system_module._chunk_blocks(cfg.background, degree, rows, y, radii[[j]], int(enclosing[j]), flips)
            block = np.zeros((dofmap.modes_per_sphere,) * 2)
            for modes, part in zip(flips.classes, parts):
                block[modes[:, None], modes] = part[:modes.size, :modes.size, 0]
            scale = np.abs(block).max()
            for modes, part in zip(stack.classes, raw):
                m = modes.size
                assert np.abs(part[:m, :m, 0] - block[modes[:, None], modes]).max() <= 1e-14 * scale
                assert np.all(part[m:] == 0.0) and np.all(part[:, m:] == 0.0)

    @pytest.mark.parametrize("degree", [3, 8])
    def test_twins_are_signed_permutations(self, degree):
        # exactly, in every pair's parts and in the assembled N
        cfg = validate(three_sphere_config(degree))
        rule, dofmap = cfg.rule(), system_module._dofmap(cfg)
        system = assemble(cfg)
        M = len(cfg.spheres)
        for _, _, stack, raw in system_module._pair_blocks(cfg, rule, dofmap, *system_module._ordered_pairs(cfg)):
            for c, (modes, (twin, where, h)) in enumerate(zip(stack.classes, stack.mirror)):
                m = modes.size
                expected = (h[:, None] * h)[..., None] * raw[twin][where[:, None], where]
                assert np.array_equal(raw[c, :m, :m], expected)
        blocks = system.Nmat.blocks
        for c, (twin, where, h) in enumerate(system_module._stack(degree, 3 | system_module._ROTATIONS).mirror):
            # a class's unknowns are the same modes of every sphere, sphere-major
            rows = (np.arange(M)[:, None] * where.size + where).reshape(-1)
            signs = np.tile(h, M)
            assert np.array_equal(blocks[c], signs[:, None] * blocks[twin][rows[:, None], rows] * signs)


def _reference_blocks(background, degree, rows, y, src_radii, n_in):
    """Raw blocks (pairs, n_a, n_a) of a chunk by the per-node contraction of
    the basis (V, W, X) with every entry of the single-layer matrix, with
    test rows (n_a, 3 T) in the active modes' own order."""
    T, n = rows.shape[1] // 3, src_radii.size
    dist = np.sqrt((y * y).sum(axis=1))
    basis = vsh_basis(y / dist[:, None], degree)
    rho = dist / np.repeat(src_radii, T)
    A = np.empty((degree + 1, rho.size, 3, 3))
    for side, nodes in (("in", slice(None, n_in * T)), ("out", slice(n_in * T, None))):
        if rho[nodes].size:
            A[:, nodes] = single_layer_matrix(np.arange(degree + 1), background, rho[nodes], side)
    ells = harmonics.per_degree(np.arange(degree + 1))
    fields = np.einsum("kptc,ptkq->pqtc", np.stack([basis.V, basis.W, basis.X]), A[ells])
    fields = fields.reshape(-1, n, 3 * T)[system_module._active_mask(degree)]
    return np.stack([rows @ fields[:, k].T for k in range(n)])


class TestChunkKernel:
    @pytest.mark.parametrize("degree", range(9))
    @pytest.mark.parametrize("axes", [0, 2, 5])
    def test_matches_einsum_reference(self, degree, axes):
        # targets at d with zero components on the axes of the pattern;
        # sources at the origin: the radius-2 enclosing sphere ('in' side)
        # and a radius-0.1 inclusion ('out' side)
        rule = rule_for_degree(17)
        d = np.where([axes >> a & 1 for a in range(3)], 0.0, [0.8, -0.9, 0.7])
        if axes:
            nodes, stacked, stack = system_module._folded_table(rule, degree, axes)
            points = rule.points[nodes]
            rows = stacked.reshape(-1, stacked.shape[-1])[stack.slots]
        else:
            stack, points = system_module._stack(degree, 0), rule.points
            rows = harmonics.weighted_basis(rule, degree)[system_module._active_mask(degree)]
            stacked = rows[None]
        y = np.concatenate([d + 0.2 * points] * 2)
        chunks = []
        for src_radii, n_in in (([2.0, 2.0], 2), ([0.1, 0.1], 0), ([2.0, 0.1], 1)):
            src_radii = np.array(src_radii)
            chunks.append((system_module._chunk_blocks(P11, degree, stacked, y, src_radii, n_in, stack),
                           _reference_blocks(P11, degree, rows, y, src_radii, n_in)))
        # the largest entry at this degree: an 'out' monopole block is zero
        # but for rounding (no flux through a sphere around no source)
        scale = max(np.abs(reference).max() for _raw, reference in chunks)
        for raw, reference in chunks:
            for n in range(2):
                for c, modes in enumerate(stack.classes):
                    m = modes.size
                    part = reference[n][modes[:, None], modes]
                    assert np.abs(raw[c, :m, :m, n] - part).max() <= 1e-15 * scale
            # the pads of the stack hold exact zeros
            filled = np.zeros(stack.modes.size, dtype=bool)
            filled[stack.slots] = True
            filled = filled.reshape(stack.modes.shape)
            assert np.all(raw[~filled] == 0.0) and np.all(raw.transpose(0, 2, 1, 3)[~filled] == 0.0)

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (0.3, -0.2)], ids=["collinear", "off_the_line"])
    def test_node_at_the_source_centre(self, offset):
        # an inclusion whose surface passes through the enclosing sphere's
        # centre has a node there: its block is finite, and the limit of the
        # blocks of inclusions moved off that point
        def system(shift):
            spheres = (SphereSpec(id=1, frame=SphereFrame((0.25 + shift, 0.0, 0.0), 0.25), role="neumann"),
                       SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann", enclosing=True),
                       SphereSpec(id=3, frame=SphereFrame((-1.0, *offset), 0.2), role="neumann"))
            return assemble(validate(ProblemConfig(spheres=spheres, background=P11, degree=4))).Nmat.toarray()

        at = system(0.0)
        assert np.isfinite(at).all()
        for shift in (1e-9, -1e-9):
            assert np.abs(system(shift) - at).max() <= 1e-8 * np.abs(at).max()

    def test_concentric_pairs_take_the_closed_form(self, monkeypatch):
        # lattice r1 is an inclusion at its enclosing sphere's centre: no
        # pair of it is summed by quadrature
        calls = []
        original = system_module._chunk_blocks

        def counting(*args):
            calls.append(len(args[3]))
            return original(*args)

        monkeypatch.setattr(system_module, "_chunk_blocks", counting)
        assemble(validate(lattice_config(1)))
        assert calls == []


class TestPairClasses:
    @_LAYOUT_CONFIGS
    def test_classes_cover_each_pair_once(self, cfg):
        cfg = validate(cfg)
        operator = CouplingOperator(cfg, cfg.rule(), MODE_SELF_CONSISTENT)
        M = len(cfg.spheres)
        pairs, k = [], 0
        for cls in operator.classes:
            assert cls.k0 == k
            k += cls.keys
            scatter = cls.scatter.tocoo()
            assert scatter.shape == (8 * M, cls.keys * cls.count)
            assert np.array_equal(np.sort(scatter.col), np.arange(scatter.shape[1]))
            assert np.all(scatter.data == 1.0)
            rows = scatter.row[np.argsort(scatter.col)]
            # a pair reads its source and writes its target under one pattern
            assert np.array_equal(rows // M, cls.sources // M)
            pairs += zip((rows % M).tolist(), (cls.sources % M).tolist(), (rows // M).tolist())
        assert k == len(operator.blocks)
        counts = [cls.count for cls in operator.classes]
        assert counts == sorted(set(counts))
        targets, sources = system_module._ordered_pairs(cfg)
        expected = zip(targets.tolist(), sources.tolist(), _patterns(cfg, targets, sources).tolist())
        assert sorted(pairs) == sorted(expected)

    @_LAYOUT_CONFIGS
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_product_matches_per_key_loop(self, cfg, mode):
        cfg = validate(cfg)
        operator = CouplingOperator(cfg, cfg.rule(), mode)
        (rep_targets, rep_sources, rep_patterns), (targets, sources, patterns, bounds) = \
            system_module._distinct_pairs(cfg)
        raw = _raw_blocks(cfg, cfg.rule(), operator.dofmap, rep_targets, rep_sources)
        signs = harmonics.reflection_signs(cfg.degree)[:, operator.dofmap.active_mask()]
        lam = np.random.default_rng(8).normal(size=(len(cfg.spheres), operator.dofmap.modes_per_sphere))
        # a collinear configuration's blocks and patterns are its axis frame's:
        # its product is compared there
        frame = operator.frame or system_module._Frame((0, 1, 2), ())
        coupling = frame.turn(operator.coupling(lam.reshape(-1))).reshape(lam.shape)
        lam = frame.turn(lam.reshape(-1)).reshape(lam.shape)
        expected = operator.diag * lam
        for k, block in enumerate(raw):
            h = signs[rep_patterns[k]]
            canonical = h[:, None] * block * h
            for n in range(bounds[k], bounds[k + 1]):
                h = signs[patterns[n]]
                expected[targets[n]] += (h[:, None] * canonical * h) @ (operator.C * lam)[sources[n]]
        assert np.abs(coupling - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_equal_configs_share_the_held_operator(self):
        first, second = validate(lattice_config(2)), validate(lattice_config(2))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        other = dataclasses.replace(first, degree=2)
        assert other != first and hash(other) != hash(first)
        # string hashes differ between processes: a copy does not carry the held hash
        assert "_hash" not in vars(pickle.loads(pickle.dumps(first)))
        coupling_operator.cache_clear()
        held = coupling_operator(first, first.rule(), MODE_SELF_CONSISTENT)
        assert coupling_operator(second, second.rule(), MODE_SELF_CONSISTENT) is held
        assert coupling_operator.cache_info().hits == 1

    def test_products_reported(self, monkeypatch):
        cfg = validate(lattice_config(5))
        operator = CouplingOperator(cfg, cfg.rule(), MODE_SELF_CONSISTENT)
        calls = []
        original = operator.coupling

        def counting(x):
            calls.append(x.size)
            return original(x)

        monkeypatch.setattr(operator, "coupling", counting)
        sol = solve(operator, cfg)
        assert sol.iterations == 4
        # the residual check of the returned x is the one product GMRES did not make
        assert sol.diagnostics["products"] == len(calls) - 1 == 5


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
            sol = solve_iterative(system, cfg, tol=1e-6)
            assert sol.residual < 1e-5


def _stiff_inclusion(degree):
    """The three-sphere case with its inclusion at mu = lambda = 1e6."""
    cfg = three_sphere_config(degree)
    stiff = dataclasses.replace(cfg.spheres[0], material=LameParams(1e6, 1e6))
    return dataclasses.replace(cfg, spheres=(stiff, *cfg.spheres[1:]))


def _largest_class_bytes(cfg, system, itemsize):
    """Bytes of the largest character class's bordered matrix in the
    factors' precision."""
    Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
    sizes = [(rows.size, np.count_nonzero(Z[rows].any(axis=0))) for rows in system.Nmat.classes]
    return max(itemsize * (m + k) ** 2 for m, k in sizes)


def _corrupted(system, Z, seed):
    """A one-class copy of the system with A' = A - (A v) v^T / v^T v, which
    annihilates a random v orthogonal to the orthonormal Z; A' Z = A Z = 0
    still, so null(A') exceeds span Z.  The change couples every character."""
    v = np.random.default_rng(seed).normal(size=system.dofmap.size)
    v -= Z @ (Z.T @ v)
    N = system.Nmat.toarray() + np.outer(system.matrix @ v, v) / (v @ v)
    return dataclasses.replace(system, Nmat=ClassBlocks.whole(N))


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
        assert diag["factorisation"] == "float32"
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
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        system = _corrupted(system, Z, 7)
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

    def test_non_null_rigid_traces_raise(self):
        # the check reads N only on the rows where Z is nonzero: perturb one,
        # within the block of its character class
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        column = np.flatnonzero(np.abs(Z).max(axis=1) > 0.1)[-1]
        (c,) = [c for c, rows in enumerate(system.Nmat.classes) if column in rows]
        block = system.Nmat.blocks[c]
        block[:, np.searchsorted(system.Nmat.classes[c], column)] += 1e-6 * np.abs(block).max()
        with pytest.raises(SolverError, match="rigid traces are not null vectors"):
            solve_direct(system, cfg)

    def test_one_bordered_allocation(self):
        # one character class at a time, read in place from its block of N:
        # its float32 bordered matrix is the largest array, and the peak
        # stays below the float32 bordered matrix of all unknowns: no copy
        # of N is made, also not in the row blocks that round it
        cfg = validate(three_sphere_config(8))
        system = assemble(cfg)
        solve_direct(system, cfg)  # rule, spectra and LAPACK set-up
        tracemalloc.start()
        try:
            sol = solve_direct(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.diagnostics["factorisation"] == "float32"
        assert len(sol.diagnostics["characters"]) == 18
        bordered = 4 * (system.dofmap.size + sol.diagnostics["null_dim"]) ** 2
        assert _largest_class_bytes(cfg, system, 4) < peak < bordered

    def test_float32_bordered_matrix_has_no_subnormals(self):
        cfg = validate(three_sphere_config(16))
        system = assemble(cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        tiny = np.finfo(np.float32).tiny
        # rounded as they are, 1 913 entries of N would land below float32's
        # normal range and slow the factorisation
        N = system.Nmat.toarray()
        assert np.count_nonzero((N != 0) & (np.abs(N) < tiny)) > 0
        B = system_module._bordered_matrix(N, system.D, system.D[:, None] * Z, np.float32)
        assert B.dtype == np.float32
        assert np.count_nonzero((B != 0) & (np.abs(B) < tiny)) == 0

    def test_stiff_inclusion_factors_in_float64(self):
        # the inclusion at mu = lambda = 1e6 takes rcond to 4.6e-9, below the
        # 2^-20 from which float32 factors refine
        cfg = validate(_stiff_inclusion(8))
        system = assemble(cfg)
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        expected, _remainder = _gelsy_oracle(system, Z)
        solve_direct(system, cfg)
        tracemalloc.start()
        try:
            sol = solve_direct(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        diag = sol.diagnostics
        assert diag["factorisation"] == "float64"
        assert 1e-13 < diag["rcond"] < 2.0**-20
        assert len(diag["characters"]) == 18
        dw = np.sqrt(system.D)
        assert np.linalg.norm(dw * (sol.lambda_ - expected)) < 1e-12 * np.linalg.norm(dw * expected)
        # the float32 arrays are freed before the float64 retry, and the
        # classes run one at a time: the largest class's float64 bordered
        # matrix sets the peak, which stays below the float64 bordered
        # matrix of all unknowns
        bordered = 8 * (system.dofmap.size + diag["null_dim"]) ** 2
        assert _largest_class_bytes(cfg, system, 8) < peak < bordered


def _unknown_characters(cfg, frame=False):
    """Signs of every unknown under the flips of the axes on which all
    sphere centres share their coordinate, (unknowns, flips), from
    ``reflection_signs``.  With ``frame``, a collinear configuration's are
    those of its axis frame, where the centres share x and y, with each
    unknown's order |m| as a last column."""
    centers = np.array([s.frame.center for s in cfg.spheres])
    collinear = frame and system_module._frame(cfg) is not None
    if collinear:
        centers = system_module._geometry(cfg)[0]
    flips = [1 << a for a in range(3) if np.all(centers[:, a] == centers[0, a])]
    signs = harmonics.reflection_signs(cfg.degree)[flips][:, system_module._active_mask(cfg.degree)]
    if collinear:
        signs = np.vstack([signs, _orders(cfg.degree)])
    return np.tile(signs.T, (len(cfg.spheres), 1))


# the three spheres lie on the x axis: in their axis frame, one class per
# character under the flips of x and y and order |m|, 2 N + 2 of them
_CHARACTER_CONFIGS = pytest.mark.parametrize("cfg,classes", [
    (three_sphere_config(8), 18),
    (three_sphere_config(8, "piecewise"), 18),
    (lattice_config(1), 8),
    (one_sphere_config(3, 8), 8),
    (poisson_sweep_config(0.3, SWEEP_NU1_MIN), 8),
], ids=["table3_n8", "table3_n8_piecewise", "lattice_r1", "one_sphere_case3", "poisson_nu1_min"])


class TestCharacterBlocks:
    @_CHARACTER_CONFIGS
    def test_off_character_coupling_is_exactly_zero(self, cfg, classes):
        # N is held as one block per character class: the couplings between
        # unknowns of different characters are not held, so they are zero
        cfg = validate(cfg)
        system = assemble(cfg)
        signs = _unknown_characters(cfg, frame=True)
        assert len(np.unique(signs, axis=0)) == classes
        held = system.Nmat.classes
        assert len(held) == classes
        assert np.array_equal(np.sort(np.concatenate(held)), np.arange(system.dofmap.size))
        characters = [np.unique(signs[rows], axis=0) for rows in held]
        assert all(len(c) == 1 for c in characters)
        assert len(np.unique(np.concatenate(characters), axis=0)) == classes
        assert [b.shape for b in system.Nmat.blocks] == [(r.size, r.size) for r in held]
        assert system.Nmat.nbytes == sum(8 * r.size ** 2 for r in held)
        # between spheres, the couplings within one character are not all zero
        # (one sphere has only its diagonal)
        nonzero = sum(np.count_nonzero(b) for b in system.Nmat.blocks)
        assert (nonzero > system.dofmap.size) == (len(cfg.spheres) > 1)

    @_CHARACTER_CONFIGS
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_rigid_traces_are_pure(self, cfg, classes, mode):
        cfg = validate(cfg)
        dofmap = system_module._dofmap(cfg)
        Z = rigid_trace_vectors(cfg, dofmap, mode)
        signs = _unknown_characters(cfg)
        for column in Z.T:
            support = signs[column != 0.0]
            assert np.all(support == support[0])
        assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-14)

    @_CHARACTER_CONFIGS
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_agrees_with_one_class(self, cfg, classes, mode, monkeypatch):
        cfg = validate(cfg)
        system = assemble(cfg, mode=mode)
        split = solve_direct(system, cfg)
        assert len(split.diagnostics["characters"]) == classes
        assert sum(split.diagnostics["characters"]) == system.dofmap.size
        # assembled as one class, each pair's class parts land at their
        # places among all of a sphere's modes
        monkeypatch.setattr(system_module, "_character_classes", lambda config, dofmap:
                            system_module._class_layout(dofmap.degree, 0, len(dofmap.sphere_ids)))
        one = assemble(cfg, mode=mode)
        assert len(one.Nmat.blocks) == 1
        # blocks[0] itself where there is no frame; both turned alike in one
        assert np.array_equal(one.Nmat.toarray(), system.Nmat.toarray())
        whole = solve_direct(one, cfg)
        assert whole.diagnostics["characters"] == [system.dofmap.size]
        dw = np.sqrt(system.D)
        assert np.linalg.norm(dw * (split.lambda_ - whole.lambda_)) <= 1e-14 * np.linalg.norm(dw * whole.lambda_)
        floor = whole.diagnostics["consistency_floor"]
        if floor > 1e-12:
            assert split.diagnostics["consistency_floor"] == pytest.approx(floor, rel=1e-10)
        else:
            assert split.diagnostics["consistency_floor"] < 1e-14
        assert split.diagnostics["factorisation"] == whole.diagnostics["factorisation"]

    def test_corrupted_coupling_takes_one_class(self):
        # a rank-one change that couples every character, as in
        # test_extra_null_vector_raises: the split would not hold, and the
        # corrupted N is a system of one class, solved as one
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        assert len(system.Nmat.classes) == 8
        Z = rigid_trace_vectors(cfg, system.dofmap, system.mode)
        corrupted = _corrupted(system, Z, 11)
        classes = corrupted.Nmat.classes
        assert len(classes) == 1 and np.array_equal(classes[0], np.arange(system.dofmap.size))
        with pytest.raises(SolverError, match="rcond"):
            solve_direct(corrupted, cfg)

    def test_no_common_flip_reads_n_in_place(self):
        # lattice r2 has no plane of symmetry through every centre: one
        # class, factored as one float32 bordered matrix with no copy of N
        cfg = validate(lattice_config(2))
        system = assemble(cfg)
        solve_direct(system, cfg)
        tracemalloc.start()
        try:
            sol = solve_direct(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.diagnostics["characters"] == [system.dofmap.size]
        bordered = 4 * (system.dofmap.size + sol.diagnostics["null_dim"]) ** 2
        assert bordered < peak < 1.5 * bordered


def _assert_columns_match(cfg, classes):
    """Columns of the held N, from every class, against the matrix-free
    product: a part written to a wrong place in its class block moves
    entries of these columns, and the matrix-free product places none."""
    system = assemble(cfg)
    held = system.Nmat.classes
    assert len(held) == classes
    columns = np.concatenate([rows[[0, rows.size // 3, rows.size // 2, -1]] for rows in held])
    E = np.zeros((system.dofmap.size, columns.size))
    E[columns, np.arange(columns.size)] = 1.0
    product = system.Nmat @ E
    for e, got in zip(E.T, product.T):
        expected = system.D * e - apply_operator(cfg, e)
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())
        assert np.array_equal(system.Nmat @ e, got)


class TestClassBlocks:
    @_CHARACTER_CONFIGS
    def test_columns_match_the_matrix_free_product(self, cfg, classes):
        _assert_columns_match(validate(cfg), classes)

    def test_folded_pairs_placed_in_one_class(self):
        # lattice r2 is one class; its pairs on a common axis or plane come as
        # several parts, each placed among all of a sphere's modes
        _assert_columns_match(validate(lattice_config(2)), 1)

    def test_store_round_trip(self):
        cfg = validate(three_sphere_config(4))
        system = assemble(cfg)
        N = system.Nmat.toarray()
        assert system.Nmat.shape == N.shape == (system.dofmap.size,) * 2
        assert np.array_equal(system.Nmat.diagonal(), np.diagonal(N))
        x = np.random.default_rng(6).normal(size=(system.dofmap.size, 3))
        assert_allclose(system.Nmat @ x, N @ x, rtol=0, atol=1e-15 * np.abs(N @ x).max())
        whole = ClassBlocks.whole(N)
        assert whole.blocks[0] is N and whole.nbytes == N.nbytes > system.Nmat.nbytes

    def test_assembly_and_solve_hold_no_dense_array(self):
        # assembly makes each class block once at its final size, and the
        # solve reads it in place: the peak is at most the held blocks, the
        # largest class's float32 bordered matrix and one chunk of pair
        # blocks, far below one n x n float64 array
        cfg = validate(three_sphere_config(8))
        solve_direct(assemble(cfg), cfg)  # rule, spectra and LAPACK set-up
        tracemalloc.start()
        try:
            system = assemble(cfg)
            sol = solve_direct(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = system.dofmap.size
        sizes = [rows.size for rows in system.Nmat.classes]
        assert sol.diagnostics["characters"] == sizes and len(sizes) == 18
        held = sum(8 * m * m for m in sizes)
        assert system.Nmat.nbytes == held == sol.diagnostics["held_block_bytes"]
        bound = held + _largest_class_bytes(cfg, system, 4) + system_module._CHUNK_BYTES
        assert held < peak < bound < 8 * n * n
        assert peak < 0.5 * 8 * n * n


class TestProduct:
    """``_product``, a @ b on SciPy's BLAS, the library of the direct path's LU."""

    @staticmethod
    def _layouts(x):
        # C- and F-ordered, and strided as y[:, :m] is in the refinement
        wide = np.zeros((x.shape[0], x.shape[1] + 3))
        wide[:, :x.shape[1]] = x
        return x, np.asfortranarray(x), wide[:, :x.shape[1]]

    def test_equals_matmul(self):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(40, 30)), rng.normal(size=(30, 20))
        v, w = rng.normal(size=30), rng.normal(size=80)[::2]
        # a[:1]: one row, a matrix-vector product in BLAS
        for A in (*self._layouts(a), *self._layouts(a[:1])):
            for B in self._layouts(b):
                out = _product(A, B)
                assert out.flags.c_contiguous
                assert_allclose(out, A @ B, rtol=0, atol=1e-15 * np.abs(a).sum(axis=1).max() * np.abs(b).max())
        for A in self._layouts(a):
            for x, y in ((_product(A, v), A @ v), (_product(w, A), w @ A)):
                assert x.shape == y.shape
                assert_allclose(x, y, rtol=0, atol=1e-15 * np.abs(y).max() * a.shape[1])
        # into out, whatever it held before
        for A, B in ((a, np.asfortranarray(b)), (a, v), (w[:30], b), (a[:1], b)):
            out = np.full((A @ B).shape, np.nan)
            assert _product(A, B, out) is out
            assert_allclose(out, A @ B, rtol=0, atol=1e-14 * np.abs(A @ B).max())
        for bad in (np.empty((20, 40)).T, np.empty((40, 20), np.float32)):
            with pytest.raises(ValueError):
                _product(a, b, out=bad)

    def test_no_copy_of_contiguous_operands(self):
        # a copied 8 MB operand would show in the peak: the result is
        # at most 1/160 of it
        rng = np.random.default_rng(24)
        big, v, cols = rng.normal(size=(1000, 1000)), rng.normal(size=1000), rng.normal(size=(1000, 6))
        calls = []
        for M in (big, np.asfortranarray(big)):
            calls += [lambda M=M: _product(M, v), lambda M=M: _product(v, M),
                      lambda M=M: _product(v[None], M), lambda M=M: _product(M, cols),
                      lambda M=M: _product(cols.T, M),
                      lambda M=M: _product(M, np.asfortranarray(cols), out=np.empty((1000, 6)))]
        for call in calls:
            call()  # BLAS set-up
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < big.nbytes / 16


class TestBorderedGMRES:
    def test_orthonormal_columns_are_numpys_qr(self):
        # the rigid traces, the border and psi take np.linalg.qr's two LAPACK
        # kernels from SciPy: bitwise its Q, NaN where it gives NaN
        rng = np.random.default_rng(3)
        cases = [rng.normal(size=(m, k)) for m, k in ((92, 6), (1288, 6), (40, 3), (7, 7))]
        cases.append(np.repeat(rng.normal(size=(50, 1)), 3, axis=1))  # rank one
        nan = rng.normal(size=(30, 4))
        nan[5, 2] = np.nan
        for A in (*cases, nan, cases[0].T.copy().T):
            assert np.array_equal(system_module._orthonormal_columns(A), np.linalg.qr(A)[0], equal_nan=True)

    def test_orthonormal_columns_refuse_an_invalid_argument(self):
        # LAPACK's dorgqr refuses a wide A (info = -2)
        with pytest.raises(LinAlgError):
            system_module._orthonormal_columns(np.ones((3, 5)))

    # at N=3 the border r C Z leans 3.6e-4 off the exact left null space,
    # and that angle times the 3.7e-5 consistency floor sets the agreement
    # with the orthogonal projection of the direct path (7.8e-9)
    @pytest.mark.parametrize("cfg,bound", [
        (three_sphere_config(3), 1e-8),
        (three_sphere_config(8), 1e-10),
        (three_sphere_config(8, "piecewise"), 1e-10),
        (lattice_config(1), 1e-10),
    ], ids=["table3_n3", "table3_n8", "table3_n8_piecewise", "lattice_r1"])
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_agrees_with_direct(self, cfg, bound, mode):
        cfg = validate(cfg)
        system = assemble(cfg, mode=mode)
        direct = solve_direct(system, cfg)
        sol = solve_iterative(system, cfg, tol=1e-12, max_iter=60)
        dw = np.sqrt(system.D)
        assert np.linalg.norm(dw * (sol.lambda_ - direct.lambda_)) <= bound * np.linalg.norm(dw * direct.lambda_)
        diag, expected = sol.diagnostics, direct.diagnostics
        assert diag["solver_path"] == "gmres"
        assert (diag["rank"], diag["null_dim"]) == (expected["rank"], expected["null_dim"])
        floor = expected["consistency_floor"]
        if floor > 1e-12:
            assert diag["consistency_floor"] == pytest.approx(floor, rel=1e-2)
        else:
            assert diag["consistency_floor"] < 1e-12
        assert len(diag["residual_history"]) == sol.iterations > 0
        assert diag["residual_history"][-1] <= 1e-12
        Z = rigid_trace_vectors(cfg, system.dofmap, mode)
        Dx = system.D * sol.lambda_
        assert np.abs(Z.T @ Dx).max() <= 1e-10 * np.linalg.norm(Dx)

    def test_incompatible_load_raises(self):
        cfg = validate(three_sphere_config(3))
        system = assemble(cfg)
        left_null = null_space(system.matrix.T)[:, 0]
        system.F += 1e-2 * np.linalg.norm(system.F) * left_null
        with pytest.raises(SolverError, match="incompatible"):
            solve_iterative(system, cfg)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("mode", [MODE_SELF_CONSISTENT, MODE_AS_PRINTED])
    def test_matrix_free_agrees_with_direct(self, radius, mode):
        cfg = validate(lattice_config(radius))
        direct = solve_direct(assemble(cfg, mode=mode), cfg)
        operator = CouplingOperator(cfg, cfg.rule(), mode)
        sol = solve_iterative(operator, cfg, tol=1e-12, max_iter=60)
        dw = np.sqrt(operator.D)
        assert np.linalg.norm(dw * (sol.lambda_ - direct.lambda_)) <= 1e-8 * np.linalg.norm(dw * direct.lambda_)
        diag = sol.diagnostics
        assert (diag["solver_path"], diag["product"]) == ("gmres", "matrix_free")
        assert diag["held_block_bytes"] == operator.blocks.nbytes
        assert diag["null_dim"] == direct.diagnostics["null_dim"]

    def test_exhausted_budget_raises(self):
        cfg = validate(three_sphere_config(8))
        system = assemble(cfg)
        with pytest.raises(SolverError, match="did not reach tol=1e-12 within 5 iterations: "
                                              "all 1 restart cycles ran"):
            solve_iterative(system, cfg, tol=1e-12, max_iter=1, restart=5)

    def test_zero_rhs(self):
        cfg = validate(one_sphere_config(1, 2))
        system = assemble(cfg)
        system.F[:] = 0.0
        sol = solve_iterative(system, cfg)
        assert_allclose(sol.lambda_, 0.0, atol=0.0)
        assert (sol.residual, sol.iterations) == (0.0, 0)
        assert sol.diagnostics["consistency_floor"] == 0.0
        assert sol.diagnostics["residual_history"] == []


def _line_copy(cfg, axes):
    """The configuration turned by the cyclic permutation (P x)_a = x[axes[a]],
    which carries the x axis to the y axis ((2, 0, 1)) or the z axis
    ((1, 2, 0))."""
    return dataclasses.replace(cfg, spheres=tuple(
        dataclasses.replace(s, frame=SphereFrame(tuple(np.array(s.frame.center)[list(axes)]), s.frame.radius))
        for s in cfg.spheres))


class TestAxisFrame:
    def test_line_copies_solve_alike(self):
        # the three spheres on the x, y and z axes, with loads turned alike:
        # each is solved in its axis frame, and the traces are turned copies
        cfg = validate(three_sphere_config(8))
        sigma = system_module.build_sigma(cfg, cfg.degree, cfg.rule())
        system = assemble(cfg, sigma=sigma)
        x = solve_direct(system, cfg).lambda_
        dw = np.sqrt(system.D)
        mask = system.dofmap.active_mask()
        assert system.Nmat.frame.axes == (1, 2, 0)
        for axes in ((2, 0, 1), (1, 2, 0)):
            copy = validate(_line_copy(cfg, axes))
            P = system_module._Frame(axes, system_module._axis_rotation(axes, cfg.degree))
            turned = {sid: VshExpansion(sid, cfg.degree, np.zeros_like(e.coeffs)) for sid, e in sigma.items()}
            for sid, e in sigma.items():
                turned[sid].flat[mask] = P.turn(e.flat[mask])
            rotated = assemble(copy, sigma=turned)
            # the y line's frame carries y to z; the z line's is the global one
            assert rotated.Nmat.frame.axes == ((0, 1, 2) if axes == (1, 2, 0) else (2, 0, 1))
            # the blocks of the three axis frames are one and the same
            assert all(np.array_equal(a, b) for a, b in zip(rotated.Nmat.blocks, system.Nmat.blocks))
            y = solve_direct(rotated, copy).lambda_
            expected = P.turn(x)
            assert np.linalg.norm(dw * (y - expected)) <= 1e-13 * np.linalg.norm(dw * expected)

    def test_blocks_are_the_turned_global_blocks(self):
        # the frame's pair blocks are R B R^T of the blocks summed in the
        # global frame, every entry computed with the full rule, on the entries
        # that are made
        cfg = validate(three_sphere_config(6))
        rule, dofmap = cfg.rule(), system_module._dofmap(cfg)
        pairs = system_module._ordered_pairs(cfg)
        framed = _raw_blocks(cfg, rule, dofmap, *pairs)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(system_module, "_LINE_FRAMES", {})
            assert system_module._frame(cfg) is None
            m.setattr(system_module, "_zero_axes", lambda d: np.zeros(len(d), dtype=int))
            plain = _raw_blocks(cfg, rule, dofmap, *pairs)
        made = framed != 0.0
        assert np.abs(_global_blocks(cfg, framed) - plain).max() > 1e-12 * np.abs(plain).max()
        frame = system_module._frame(cfg)
        turned = np.stack([frame.turn(frame.turn(b).T).T for b in plain])
        assert np.abs(turned - framed)[made].max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("cfg", [
        lattice_config(1), lattice_config(2), lattice_config(3), one_sphere_config(3, 8),
        poisson_sweep_config(1.0 / 6.0, 0.3), poisson_sweep_config(0.3, SWEEP_NU1_MIN),
    ], ids=["lattice_r1", "lattice_r2", "lattice_r3", "one_sphere_case3", "poisson", "poisson_nu1_min"])
    def test_no_frame_off_a_line(self, cfg):
        # lattices, concentric sets and single spheres take no frame and no
        # order classes: their N, products and traces are made as before
        cfg = validate(cfg)
        assert system_module._frame(cfg) is None
        assert not system_module._common_axes(cfg) & system_module._ROTATIONS
        system = assemble(cfg)
        assert system.Nmat.frame is None and CouplingOperator(cfg, cfg.rule(), system.mode).frame is None
        targets, sources = system_module._ordered_pairs(cfg)
        for _ipos, _jpos, stack, _raw in system_module._pair_blocks(cfg, cfg.rule(), system.dofmap,
                                                                    targets, sources):
            assert not stack.axes & system_module._ROTATIONS

    @settings(max_examples=25, deadline=None)
    @given(axis=st.integers(0, 2), offset=st.sampled_from([(0.0, 0.0), (0.25, -0.1)]),
           inclusions=st.lists(st.tuples(st.floats(-1.4, 1.4), st.floats(0.05, 0.4), st.booleans()),
                               min_size=1, max_size=3),
           degree=st.integers(1, 6), enclosing_at=st.sampled_from([0.0, 0.3]))
    # an inclusion with a node at the enclosing sphere's centre
    @example(axis=0, offset=(0.0, 0.0), inclusions=[(0.25, 0.25, False)], degree=1, enclosing_at=0.0)
    def test_collinear_products_agree(self, axis, offset, inclusions, degree, enclosing_at):
        # random collinear configurations along x, y or z: 2-4 spheres, one of
        # them the radius-2 enclosing sphere, with positive gaps; the class
        # blocks and the matrix-free operator agree to criterion 10's 1e-13
        positions = [t for t, _r, _k in inclusions]
        radii = [r for _t, r, _k in inclusions]
        for a in range(len(inclusions)):
            assume(abs(positions[a] - enclosing_at) + radii[a] < 1.95)
            for b in range(a):
                assume(abs(positions[a] - positions[b]) > radii[a] + radii[b] + 0.05)

        def point(t):
            coords = [*offset]
            coords.insert(axis, t)
            return tuple(coords)

        spheres = [SphereSpec(id=k + 1, frame=SphereFrame(point(t), r),
                              **({"role": "transmission", "material": LameParams(2.0, 1.5)} if soft
                                 else {"role": "neumann"}))
                   for k, (t, r, soft) in enumerate(inclusions)]
        spheres.append(SphereSpec(id=len(spheres) + 1, frame=SphereFrame(point(enclosing_at), 2.0),
                                  role="neumann", enclosing=True))
        cfg = validate(ProblemConfig(spheres=tuple(spheres), background=P11, degree=degree))
        system = assemble(cfg)
        # distinct centres on one line take its axis frame
        assert (system.Nmat.frame is None) == (len({*positions, enclosing_at}) == 1)
        x = np.random.default_rng(degree).normal(size=system.dofmap.size)
        dense = system.D * x - system.Nmat @ x
        assert np.abs(apply_operator(cfg, x) - dense).max() <= 1e-13 * max(np.abs(dense).max(), 1.0)

    def test_turn_round_trip(self):
        axes = (2, 0, 1)
        frame = system_module._Frame(axes, system_module._axis_rotation(axes, 5))
        x = np.random.default_rng(12).normal(size=(3 * (3 * 36 - 2), 4))
        y = frame.turn(x)
        assert np.abs(frame.turn(y, back=True) - x).max() < 1e-14 * np.abs(x).max()
        # column by column as vectors, and F-ordered input alike
        assert np.array_equal(frame.turn(x[:, 1]), y[:, 1])
        assert np.array_equal(frame.turn(np.asfortranarray(x)), y)
        # the norm and the degree-0 entries are kept
        assert_allclose(np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0), rtol=1e-14)
        assert np.array_equal(y[::3 * 36 - 2], x[::3 * 36 - 2])
