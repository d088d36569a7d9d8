"""Shipped experiment configurations.

Every experiment of the numerical-tests section is reproducible from a
preset name alone: the one-sphere convergence cases, the three-sphere
case study with smooth and piecewise data, the cubic-lattice cost
benchmark, and the Poisson-ratio sweep geometry.
"""

from __future__ import annotations

import numpy as np

from .materials import LameParams, poisson_to_lambda
from .problem import BoundaryData, ProblemConfig, SolverOptions, SphereSpec
from .quadrature import SphereFrame


def one_sphere_config(case: int, degree: int) -> ProblemConfig:
    """Unit Neumann sphere with one of the four reference stress fields."""
    data = one_sphere_data(case)
    return ProblemConfig(
        spheres=(SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 1.0),
                            role="neumann", enclosing=True, data=data),),
        background=LameParams(1.0, 1.0),
        degree=degree,
    )


def one_sphere_data(case: int) -> BoundaryData:
    if case == 1:
        return BoundaryData(kind="linear", scale=-1.0)
    if case == 2:
        return BoundaryData(kind="linear", scale=-1.0,
                            matrix=(1.0, 0, 0, 0, 0, 0, 0, 0, 0))
    if case == 3:
        return BoundaryData(kind="power", scale=-1.0, exponent=7)
    if case == 4:
        return BoundaryData(kind="sinusoidal", scale=-1.0)
    raise ValueError(f"one-sphere case must be 1..4, got {case}")


# degree of the exact expansion per case: linear data has content up to
# l = 2, the degree-7 polynomial up to l = 8, the sinusoid is cut at 50
ONE_SPHERE_LEX = {1: 2, 2: 2, 3: 8, 4: 50}


def three_sphere_config(degree: int, data: str = "smooth", quad_margin: int | None = None) -> ProblemConfig:
    """The two-inclusion case study: one elastic inclusion, one cavity,
    one enclosing sphere, with smooth or piecewise stress data.

    The piecewise variant recenters the sign split at each sphere's
    center (the printed form with a global split leaves the small sphere
    entirely on one side, i.e. a constant, net-force-incompatible load)
    and defaults to quad_margin=2, the actual degree excess of vector
    harmonic products, which keeps the discontinuous-data aliasing from
    spiking on particular rules.
    """
    if data == "smooth":
        d2 = BoundaryData(kind="sinusoidal", scale=-10.0, offset=(-1.0, -1.0, -1.0))
        d3 = BoundaryData(kind="sinusoidal", scale=-2.0)
        margin = 0 if quad_margin is None else quad_margin
    elif data == "piecewise":
        d2 = BoundaryData(kind="piecewise_sign", vector=(-0.2, 0.0, 0.0), offset=(-1.0, 0.0, 0.0))
        d3 = BoundaryData(kind="piecewise_sign", vector=(1.0, 0.0, 0.0))
        margin = 2 if quad_margin is None else quad_margin
    else:
        raise ValueError(f"data must be 'smooth' or 'piecewise', got {data!r}")
    return ProblemConfig(
        spheres=(
            SphereSpec(id=1, frame=SphereFrame((1.0, 0.0, 0.0), 0.1), role="transmission",
                       material=LameParams(10.0, 10.0), data=BoundaryData(kind="zero")),
            SphereSpec(id=2, frame=SphereFrame((-1.0, 0.0, 0.0), 0.1), role="neumann", data=d2),
            SphereSpec(id=3, frame=SphereFrame((0.0, 0.0, 0.0), 2.0), role="neumann",
                       enclosing=True, data=d3),
        ),
        background=LameParams(1.0, 1.0),
        degree=degree,
        quad_margin=margin,
    )


def lattice_config(radius: float, degree: int = 3, tol: float = 1e-6) -> ProblemConfig:
    """Cost-benchmark model: radius-0.1 inclusions on the integer lattice
    inside a sphere of the given radius, loaded by the radial stress
    -(x, y, z)/R on the enclosing boundary."""
    bound = int(np.floor(radius))
    pts = [(i, j, k)
           for i in range(-bound, bound + 1)
           for j in range(-bound, bound + 1)
           for k in range(-bound, bound + 1)
           if np.sqrt(i * i + j * j + k * k) + 0.1 < radius]
    pts = np.array(pts, dtype=float).reshape(-1, 3)
    spheres = [
        SphereSpec(id=i + 1, frame=SphereFrame(tuple(p), 0.1), role="transmission",
                   material=LameParams(10.0, 10.0), data=BoundaryData(kind="zero"))
        for i, p in enumerate(pts)
    ]
    spheres.append(SphereSpec(
        id=len(pts) + 1, frame=SphereFrame((0.0, 0.0, 0.0), float(radius)),
        role="neumann", enclosing=True,
        data=BoundaryData(kind="linear", scale=-1.0 / radius),
    ))
    return ProblemConfig(
        spheres=tuple(spheres), background=LameParams(1.0, 1.0), degree=degree,
        solver=SolverOptions(method="iterative", tol=tol),
    )


def poisson_sweep_config(nu0: float, nu1: float, degree: int = 3) -> ProblemConfig:
    """Unit Neumann sphere under -(x,y,z) with a half-radius inclusion.

    Both shear moduli are 1; the Poisson ratios set the second Lame
    constants.  nu1 = -1 itself is the inadmissible boundary (zero bulk
    modulus), so sweeps should stop just short of it.
    """
    return ProblemConfig(
        spheres=(
            SphereSpec(id=1, frame=SphereFrame((0.0, 0.0, 0.0), 0.5), role="transmission",
                       material=LameParams(1.0, poisson_to_lambda(nu1, 1.0)),
                       data=BoundaryData(kind="zero")),
            SphereSpec(id=2, frame=SphereFrame((0.0, 0.0, 0.0), 1.0), role="neumann",
                       enclosing=True, data=BoundaryData(kind="linear", scale=-1.0)),
        ),
        background=LameParams(1.0, poisson_to_lambda(nu0, 1.0)),
        degree=degree,
    )


SWEEP_NU1_MIN = -1.0 + 1e-9
SWEEP_NU1_MAX = 0.4998


def named_config(name: str, degree: int | None = None) -> ProblemConfig:
    """Resolve a preset name to a configuration."""
    if name.startswith("one_sphere_case"):
        case = int(name.removeprefix("one_sphere_case"))
        return one_sphere_config(case, degree or 8)
    if name == "table3_smooth":
        return three_sphere_config(degree or 8, "smooth")
    if name == "table3_piecewise":
        return three_sphere_config(degree or 8, "piecewise")
    if name.startswith("lattice_r"):
        return lattice_config(float(name.removeprefix("lattice_r")), degree or 3)
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = (
    "one_sphere_case1", "one_sphere_case2", "one_sphere_case3", "one_sphere_case4",
    "table3_smooth", "table3_piecewise",
    "lattice_r1", "lattice_r2", "lattice_r3", "lattice_r4", "lattice_r5",
)
