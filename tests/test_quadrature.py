import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import elastisph
from elastisph.harmonics import scalar_basis, sh_degree_order
from elastisph.quadrature import LEBEDEV_TABLE, MAX_DEGREE, SphereFrame, rule_for_degree


class TestRuleTable:
    def test_counts_match_table(self):
        for degree, count in LEBEDEV_TABLE:
            rule = rule_for_degree(degree)
            assert rule.degree == degree
            assert rule.size == count

    def test_weights_sum(self):
        for degree, _ in LEBEDEV_TABLE:
            rule = rule_for_degree(degree)
            assert abs(rule.weights.sum() - 4 * np.pi) < 1e-12 * 4 * np.pi

    def test_points_unit(self):
        for degree in (3, 29, 107):
            rule = rule_for_degree(degree)
            assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-14

    def test_lookup_examples(self):
        assert rule_for_degree(6).degree == 7
        assert rule_for_degree(6).size == 26
        assert rule_for_degree(3).size == 6
        assert rule_for_degree(0).size == 6

    def test_lookup_monotone(self):
        prev = 0
        for req in range(0, MAX_DEGREE + 1, 5):
            size = rule_for_degree(req).size
            assert size >= prev
            prev = size

    def test_degree_too_large(self):
        with pytest.raises(ValueError, match="largest embedded rule"):
            rule_for_degree(MAX_DEGREE + 1)

    @pytest.mark.parametrize("degree", [degree for degree, _count in LEBEDEV_TABLE])
    def test_embedded_rule_is_scipys(self, degree):
        # scipy is the reference the table was written from; the library
        # itself never imports scipy.integrate
        from scipy.integrate import lebedev_rule

        x, w = lebedev_rule(degree)
        rule = rule_for_degree(degree)
        assert_array_equal(rule.points, x.T)
        assert_array_equal(rule.weights, w)
        # bitwise, signed zeros included
        assert rule.points.tobytes() == x.T.tobytes()
        assert rule.weights.tobytes() == w.tobytes()

    @pytest.mark.parametrize("degree", [degree for degree, _count in LEBEDEV_TABLE])
    def test_closed_under_coordinate_flips(self, degree):
        # the matrix-free coupling holds one block per displacement up to
        # these flips; it needs each node's mirror image, with its weight
        rule = rule_for_degree(degree)

        def canonical(points):
            order = np.lexsort(points.T[::-1])
            return points[order], rule.weights[order]

        points, weights = canonical(rule.points)
        for axis in range(3):
            flip = np.ones(3)
            flip[axis] = -1.0
            flipped, flipped_weights = canonical(rule.points * flip)
            assert_array_equal(flipped, points)
            assert_array_equal(flipped_weights, weights)

    @pytest.mark.parametrize("degree", [degree for degree, _count in LEBEDEV_TABLE])
    def test_closed_under_axis_permutations(self, degree):
        # an axis frame turns the rule by a cyclic permutation of the axes,
        # and its pairs fold by the mirror x <-> y: each of the six maps the
        # rule onto itself, bitwise in points and weights
        rule = rule_for_degree(degree)

        def canonical(points):
            order = np.lexsort(points.T[::-1])
            return points[order].tobytes(), rule.weights[order].tobytes()

        points = canonical(rule.points)
        for axes in itertools.permutations(range(3)):
            assert canonical(rule.points[:, list(axes)]) == points


def test_import_leaves_out_scipy_integrate():
    # a fresh interpreter: pytest's own process has imported them already
    probe = ("import sys, elastisph, elastisph.cli; "
             "print(' '.join(m for m in ('scipy.integrate', 'scipy.special', 'scipy.optimize') "
             "if m in sys.modules))")
    src = str(Path(elastisph.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []


class TestExactness:
    @pytest.mark.parametrize("degree", [3, 7, 13, 23, 35])
    def test_scalar_products(self, degree):
        # every product Y_lm Y_l'm' with l + l' <= N_g integrates to the
        # Kronecker delta
        rule = rule_for_degree(degree)
        half = degree // 2
        Y, _ = scalar_basis(rule.points, degree - half)
        for p in range(Y.shape[0]):
            lp, _ = sh_degree_order(p)
            for q in range(p, min(Y.shape[0], (half + 1) ** 2)):
                lq, _ = sh_degree_order(q)
                if lp + lq > degree:
                    continue
                val = float(np.sum(rule.weights * Y[p] * Y[q]))
                assert val == pytest.approx(1.0 if p == q else 0.0, abs=1e-11)


def test_frame_validation():
    with pytest.raises(ValueError):
        SphereFrame((0.0, 0.0, 0.0), -1.0)
