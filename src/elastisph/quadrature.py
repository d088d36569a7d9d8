"""Lebedev quadrature on the unit sphere.

Weights are normalized so that the rule integrates the constant 1 to 4*pi.
The rules of ``LEBEDEV_TABLE`` ship in ``lebedev.npz`` next to this module,
bitwise equal to ``scipy.integrate.lebedev_rule``, as ``points_<degree>``
(T, 3) and ``weights_<degree>`` (T,).  The table was written once with

    from scipy.integrate import lebedev_rule
    rules = {d: lebedev_rule(d) for d, _count in LEBEDEV_TABLE}
    np.savez_compressed("lebedev.npz", **{f"points_{d}": x.T.copy() for d, (x, _w) in rules.items()}, **{f"weights_{d}": w for d, (_x, w) in rules.items()})
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

_TABLE_PATH = Path(__file__).with_name("lebedev.npz")

# (exact degree, number of points) of the supported Lebedev rules.
LEBEDEV_TABLE: tuple[tuple[int, int], ...] = (
    (3, 6), (5, 14), (7, 26), (9, 38), (11, 50), (13, 74), (15, 86),
    (17, 110), (19, 146), (21, 170), (23, 194), (25, 230), (27, 266),
    (29, 302), (31, 350), (35, 434), (41, 590), (47, 770), (53, 974),
    (59, 1202), (65, 1454), (71, 1730), (77, 2030), (83, 2354),
    (89, 2702), (95, 3074), (101, 3470), (107, 3890),
)

MAX_DEGREE = LEBEDEV_TABLE[-1][0]


@dataclass(frozen=True, eq=False)
class LebedevRule:
    """A spherical quadrature rule exact for harmonics up to ``degree``."""

    degree: int
    points: np.ndarray   # (T, 3) unit vectors
    weights: np.ndarray  # (T,), sums to 4*pi

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SphereFrame:
    """Center and radius of one sphere."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def surface_points(self, rule: LebedevRule) -> np.ndarray:
        """Quadrature nodes mapped onto this sphere, shape (T, 3)."""
        return self.center_array + self.radius * rule.points


@lru_cache(maxsize=None)
def _load_rule(degree: int) -> LebedevRule:
    with np.load(_TABLE_PATH) as table:
        points = table[f"points_{degree}"]
        weights = table[f"weights_{degree}"]
    expected = dict(LEBEDEV_TABLE)[degree]
    if weights.size != expected:
        raise RuntimeError(
            f"Lebedev rule of degree {degree} has {weights.size} points, expected {expected}"
        )
    if abs(weights.sum() - 4.0 * np.pi) > 1e-12 * 4.0 * np.pi:
        raise RuntimeError(f"Lebedev weights of degree {degree} do not sum to 4*pi")
    norms = np.linalg.norm(points, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-14:
        raise RuntimeError(f"Lebedev points of degree {degree} are not unit vectors")
    return LebedevRule(degree=degree, points=points, weights=weights)


def rule_for_degree(requested_degree: int) -> LebedevRule:
    """Smallest embedded rule whose exact degree is >= the requested degree."""
    for degree, _count in LEBEDEV_TABLE:
        if degree >= requested_degree:
            return _load_rule(degree)
    raise ValueError(
        f"requested exactness degree {requested_degree} exceeds the largest "
        f"embedded rule (degree {MAX_DEGREE})"
    )

