import numpy as np
import pytest

from elastisph.harmonics import eval_VWX, scalar_basis, sh_degree_order
from elastisph.quadrature import (
    LEBEDEV_TABLE,
    MAX_DEGREE,
    SphereFrame,
    inner_product,
    rule_for_degree,
)


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


class TestInnerProduct:
    def test_v00_unit_norm_any_sphere(self):
        frame = SphereFrame((2.0, -1.0, 0.5), 3.7)
        rule = rule_for_degree(5)

        def v00(pts):
            d = (pts - frame.center_array) / frame.radius
            return np.stack([eval_VWX(0, 0, dd / np.linalg.norm(dd))[0] for dd in d])

        assert inner_product(v00, v00, rule, frame) == pytest.approx(1.0, abs=1e-12)

    def test_cross_family_orthogonal(self):
        rule = rule_for_degree(7)

        def v10(pts):
            return np.stack([eval_VWX(1, 0, p)[0] for p in pts])

        def x21(pts):
            return np.stack([eval_VWX(2, 1, p)[2] for p in pts])

        assert inner_product(v10, x21, rule) == pytest.approx(0.0, abs=1e-12)

    def test_constant_field(self):
        rule = rule_for_degree(3)
        const = lambda pts: np.tile([1.0, 0.0, 0.0], (len(pts), 1))
        assert inner_product(const, const, rule) == pytest.approx(4 * np.pi, rel=1e-13)


def test_frame_validation():
    with pytest.raises(ValueError):
        SphereFrame((0.0, 0.0, 0.0), -1.0)
