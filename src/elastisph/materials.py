"""Isotropic elastic material parameters.

An isotropic material is described by the shear modulus ``mu`` and
the second Lame constant ``lam``.  Admissibility is ``mu > 0`` and
``2*mu + 3*lam > 0`` (positive bulk modulus ``K = lam + 2*mu/3``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LameParams:
    """Shear modulus and second Lame constant of one material region."""

    mu: float
    lam: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"shear modulus must be positive, got mu={self.mu}")
        if not 2.0 * self.mu + 3.0 * self.lam > 0.0:
            raise ValueError(
                f"inadmissible material: 2*mu + 3*lam = {2.0 * self.mu + 3.0 * self.lam} <= 0"
            )

    @property
    def poisson(self) -> float:
        """Poisson's ratio lam / (2 (mu + lam)), in (-1, 1/2)."""
        return lambda_to_poisson(self.lam, self.mu)


def poisson_to_lambda(nu: float, mu: float) -> float:
    """Second Lame constant for a given Poisson's ratio and shear modulus."""
    if not mu > 0.0:
        raise ValueError(f"shear modulus must be positive, got mu={mu}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson's ratio must lie in (-1, 1/2), got nu={nu}")
    return 2.0 * mu * nu / (1.0 - 2.0 * nu)


def lambda_to_poisson(lam: float, mu: float) -> float:
    """Poisson's ratio lam / (2 (mu + lam))."""
    if not mu > 0.0:
        raise ValueError(f"shear modulus must be positive, got mu={mu}")
    if mu + lam == 0.0:
        raise ValueError("Poisson's ratio undefined for mu + lam = 0")
    return lam / (2.0 * (mu + lam))
