"""Multi-sphere problem description and validation.

A problem is a collection of non-overlapping spheres inside one
enclosing sphere.  Inner spheres are either transmission interfaces
(an elastic inclusion with its own material, continuity of displacement
and a prescribed traction jump) or Neumann cavities (prescribed surface
stress data).  The enclosing sphere always carries Neumann data and is
the one boundary with orientation sign -1.

Boundary data enters the integral equation as the surface field Sigma;
it can be given as one of a few closed-form builtins (covering every
shipped experiment) or as raw coefficients.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .harmonics import Family, VshExpansion, num_scalar_modes, project_fields
from .materials import LameParams, lambda_to_poisson, poisson_to_lambda  # noqa: F401
from .quadrature import MAX_DEGREE, LebedevRule, SphereFrame, rule_for_degree

ROLE_TRANSMISSION = "transmission"
ROLE_NEUMANN = "neumann"

DATA_KINDS = ("zero", "linear", "power", "sinusoidal", "piecewise_sign", "coeffs")


class ValidationError(ValueError):
    """Raised when a problem configuration violates its invariants."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid problem configuration:\n  - " + "\n  - ".join(errors))


@dataclass(frozen=True)
class BoundaryData:
    """Closed-form or coefficient description of one sphere's data field.

    kinds (global Cartesian coordinates x):
      zero            0
      linear          scale * matrix @ x   (matrix defaults to identity)
      power           scale * (x1^p, x2^p, x3^p)
      sinusoidal      scale * sin(2 pi freq (x - offset)) componentwise
      piecewise_sign  sign((x - offset) . axis) * vector; quadrature nodes
                      exactly on the dividing plane get the average value 0
      coeffs          raw VSH coefficients [(ell, m, family, value), ...]
    """

    kind: str = "zero"
    scale: float = 1.0
    exponent: int = 1
    frequency: float = 1.0
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vector: tuple[float, float, float] = (0.0, 0.0, 0.0)
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    matrix: tuple | None = None
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}; expected one of {DATA_KINDS}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(pts)
        if self.kind == "linear":
            if self.matrix is not None:
                m = np.asarray(self.matrix, dtype=float).reshape(3, 3)
                return self.scale * pts @ m.T
            return self.scale * pts
        if self.kind == "power":
            return self.scale * pts ** self.exponent
        if self.kind == "sinusoidal":
            off = np.asarray(self.offset, dtype=float)
            return self.scale * np.sin(2.0 * np.pi * self.frequency * (pts - off))
        if self.kind == "piecewise_sign":
            ax = np.asarray(self.axis, dtype=float)
            v = np.asarray(self.vector, dtype=float)
            off = np.asarray(self.offset, dtype=float)
            return np.sign((pts - off) @ ax)[:, None] * v
        raise ValueError("coefficient data has no pointwise form; expand it instead")

    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "coeffs":
            return all(abs(c[3]) == 0.0 for c in self.coeffs)
        return False


@dataclass(frozen=True)
class SphereSpec:
    """Geometry, role and boundary data of one sphere."""

    id: int
    frame: SphereFrame
    role: str
    data: BoundaryData = field(default_factory=BoundaryData)
    material: LameParams | None = None
    enclosing: bool = False

    def __post_init__(self):
        if self.role not in (ROLE_TRANSMISSION, ROLE_NEUMANN):
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def sign(self) -> int:
        """Orientation parameter: -1 on the enclosing sphere, +1 elsewhere."""
        return -1 if self.enclosing else 1


@dataclass(frozen=True)
class SolverOptions:
    method: str = "direct"
    tol: float = 1e-6
    max_iter: int = 1000
    restart: int = 50

    def __post_init__(self):
        if self.method not in ("direct", "iterative"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not self.tol > 0.0:
            raise ValueError("solver tolerance must be positive")
        if self.max_iter < 1 or self.restart < 1:
            raise ValueError(
                f"solver max_iter and restart must be at least 1 "
                f"(got {self.max_iter} and {self.restart})"
            )


@dataclass(frozen=True)
class ProblemConfig:
    spheres: tuple[SphereSpec, ...]
    background: LameParams
    degree: int
    quad_margin: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))

    def __hash__(self) -> int:
        # computed once: the lru_cache keys of the product (``apply_operator``)
        # and of the pair grouping hash the configuration on every call
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # string hashes differ between processes: a copy hashes afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def enclosing(self) -> SphereSpec:
        return next(s for s in self.spheres if s.enclosing)

    def rule(self) -> LebedevRule:
        """Assembly rule: exact for products of two degree-N harmonics."""
        return rule_for_degree(2 * self.degree + self.quad_margin)


def sphere_gaps(config: ProblemConfig):
    """Surface-to-surface gaps of the inner (non-enclosing) spheres.

    Returns ``(ids, enclosing_gaps, pairs, pair_gaps)``: the inner
    spheres' ids (n,), each one's gap to the enclosing sphere (n,;
    infinite without one), the ids of every pair i < j of them (P, 2)
    and the pairs' gaps (P,).  A gap <= 0 is an escape or an overlap.
    """
    inner = [s for s in config.spheres if not s.enclosing]
    ids = np.array([s.id for s in inner], dtype=int)
    centers = np.array([s.frame.center for s in inner], dtype=float).reshape(-1, 3)
    radii = np.array([s.frame.radius for s in inner], dtype=float)
    outer = next((s for s in config.spheres if s.enclosing), None)
    if outer is None:
        enclosing_gaps = np.full(len(inner), np.inf)
    else:
        dist = np.linalg.norm(centers - outer.frame.center_array, axis=1)
        enclosing_gaps = outer.frame.radius - (dist + radii)
    i, j = np.triu_indices(len(inner), 1)
    # a gap is <= 0 exactly when the distance is <= the sum of the radii
    pair_gaps = np.linalg.norm(centers[i] - centers[j], axis=1) - (radii[i] + radii[j])
    return ids, enclosing_gaps, np.stack([ids[i], ids[j]], axis=1), pair_gaps


def validate(config: ProblemConfig, net_load_tol: float = 1e-8,
             product: str | None = None) -> ProblemConfig:
    """Check all geometric and material invariants; returns the config.

    Raises ValidationError listing every violated invariant, including a
    solve that needs more memory than is available (``system.solver_bytes``
    of ``product``).  By default ``product`` is the one ``elastisph
    solve`` runs: ``"dense"`` for the direct solver, ``"matrix_free"`` for
    GMRES; a caller that runs GMRES on the dense system passes
    ``"dense"``.  A nonzero net force or torque of the enclosing Neumann
    data is reported as a warning, not an error.
    """
    errors: list[str] = []
    ids = [s.id for s in config.spheres]
    if len(set(ids)) != len(ids):
        errors.append("sphere ids are not unique")
    enclosing = [s for s in config.spheres if s.enclosing]
    inner_ids, enclosing_gaps, pairs, pair_gaps = sphere_gaps(config)
    if len(enclosing) != 1:
        errors.append(f"expected exactly one enclosing sphere, found {len(enclosing)}")
    else:
        if enclosing[0].role != ROLE_NEUMANN:
            errors.append("the enclosing sphere must carry Neumann data")
        for sid in inner_ids[enclosing_gaps <= 0.0]:
            errors.append(f"sphere {sid} is not strictly inside the enclosing sphere")
    for a, b in pairs[pair_gaps <= 0.0]:
        errors.append(f"spheres {a} and {b} overlap")
    for s in config.spheres:
        if s.role == ROLE_TRANSMISSION:
            if s.material is None:
                errors.append(f"transmission sphere {s.id} has no material")
            if s.enclosing:
                errors.append("the enclosing sphere cannot be a transmission interface")
        elif s.material is not None:
            errors.append(f"Neumann sphere {s.id} must not carry a material")
    if config.degree < 1:
        errors.append("expansion degree must be at least 1")
    needed = 2 * config.degree + max(config.quad_margin, 0)
    if needed > MAX_DEGREE:
        errors.append(
            f"expansion degree {config.degree} needs a quadrature rule of degree "
            f"{needed} (2N + quad_margin), above the largest Lebedev rule "
            f"(degree {MAX_DEGREE})"
        )
    if not errors:
        from .system import solver_bytes  # system imports this module

        if product is None:
            product = "dense" if config.solver.method == "direct" else "matrix_free"
        need, have = solver_bytes(config, product), available_memory()
        if have is not None and need > have:
            held = "dense system" if product == "dense" else "operator"
            errors.append(
                f"the {held} of {_unknowns(config)} unknowns needs "
                f"about {need / 2**30:.2f} GiB with the {config.solver.method} solver, "
                f"more than the {have / 2**30:.2f} GiB of memory available"
            )
    if errors:
        raise ValidationError(errors)

    outer = config.enclosing
    if not outer.data.is_zero():
        rule = rule_for_degree(max(2 * config.degree, 11))
        pts = outer.frame.surface_points(rule)
        vals = _data_values(outer.data, outer, config.degree, rule)
        force = np.einsum("t,tc->c", rule.weights, vals)
        torque = np.einsum("t,tc->c", rule.weights,
                           np.cross(pts - outer.frame.center_array, vals))
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        if max(np.abs(force).max(), np.abs(torque).max()) > net_load_tol * scale:
            warnings.warn(
                "enclosing Neumann data has nonzero net force or torque; the "
                "problem is solvable only up to its compatible part",
                stacklevel=2,
            )
    return config


# cgroup v2 and v1 limits on the memory of this process's group
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")
_MEMINFO = "/proc/meminfo"


def _mem_available() -> int | None:
    """The kernel's estimate of the memory available to new work
    (``MemAvailable`` of /proc/meminfo) in bytes; None where it cannot be
    read."""
    try:
        with open(_MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def available_memory() -> int | None:
    """Bytes of memory the process may use: the memory available now
    (``MemAvailable``), or physical RAM where that cannot be read, capped
    by a readable cgroup limit.  None where none of them can be read.

    Physical RAM alone let a solve that needs most of it start, and the
    kernel killed it: ``solve --preset lattice_r5 --solver direct``,
    charged 7.45 GiB on a host of 7.84 GiB."""
    limit = _mem_available()
    if limit is None:
        try:
            limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):
            limit = None
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            limit = int(text) if limit is None else min(limit, int(text))
    return limit


def _unknowns(config: ProblemConfig) -> int:
    return len(config.spheres) * (3 * num_scalar_modes(config.degree) - 2)


def _data_values(data: BoundaryData, sphere: SphereSpec, degree: int, rule) -> np.ndarray:
    if data.kind == "coeffs":
        from .harmonics import reconstruct

        return reconstruct(_coeff_expansion(data, sphere.id, degree), rule.points)
    return data(sphere.frame.surface_points(rule))


def _coeff_expansion(data: BoundaryData, sphere_id: int, degree: int) -> VshExpansion:
    out = VshExpansion.zeros(sphere_id, degree)
    for ell, m, fam, value in data.coeffs:
        if ell > degree:
            continue  # Galerkin truncation
        out.set(int(ell), int(m), Family(int(fam)), float(value))
    return out


def build_sigma(
    config: ProblemConfig, degree: int | None = None, rule: LebedevRule | None = None
) -> dict[int, VshExpansion]:
    """Project every sphere's boundary data to degree N expansions.

    The same quadrature rule as the Galerkin assembly is used, so the
    aliasing behavior of the discrete scheme is exactly the one induced
    by the rule choice.
    """
    degree = config.degree if degree is None else degree
    rule = config.rule() if rule is None else rule
    sigma: dict[int, VshExpansion] = {}
    projected = []
    for s in config.spheres:
        if s.data.kind == "coeffs":
            sigma[s.id] = _coeff_expansion(s.data, s.id, degree)
        elif s.data.is_zero():
            sigma[s.id] = VshExpansion.zeros(s.id, degree)
        else:
            projected.append(s)
    # one weighted-basis evaluation for all the projected spheres
    expansions = project_fields([(s.data, s.frame) for s in projected], degree, rule) if projected else []
    for s, exp in zip(projected, expansions):
        exp.sphere_id = s.id
        sigma[s.id] = exp
    return {s.id: sigma[s.id] for s in config.spheres}


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def config_to_dict(config: ProblemConfig) -> dict:
    spheres = []
    for s in config.spheres:
        d: dict = {
            "id": s.id,
            "center": list(s.frame.center),
            "radius": s.frame.radius,
            "role": s.role,
            "enclosing": s.enclosing,
            "data": _data_to_dict(s.data),
        }
        if s.material is not None:
            d["material"] = {"mu": s.material.mu, "lambda": s.material.lam}
        spheres.append(d)
    return {
        "background": {"mu": config.background.mu, "lambda": config.background.lam},
        "degree": config.degree,
        "quad_margin": config.quad_margin,
        "solver": {
            "method": config.solver.method,
            "tol": config.solver.tol,
            "max_iter": config.solver.max_iter,
            "restart": config.solver.restart,
        },
        "spheres": spheres,
    }


def _data_to_dict(data: BoundaryData) -> dict:
    out: dict = {"kind": data.kind}
    if data.kind == "linear":
        out["scale"] = data.scale
        if data.matrix is not None:
            out["matrix"] = list(data.matrix)
    elif data.kind == "power":
        out.update(scale=data.scale, exponent=data.exponent)
    elif data.kind == "sinusoidal":
        out.update(scale=data.scale, frequency=data.frequency, offset=list(data.offset))
    elif data.kind == "piecewise_sign":
        out.update(vector=list(data.vector), axis=list(data.axis))
    elif data.kind == "coeffs":
        out["coeffs"] = [list(c) for c in data.coeffs]
    return out


def _data_from_dict(d: dict) -> BoundaryData:
    kind = d.get("kind", "zero")
    kwargs: dict = {"kind": kind}
    for key in ("scale", "exponent", "frequency"):
        if key in d:
            kwargs[key] = d[key]
    for key in ("offset", "vector", "axis"):
        if key in d:
            kwargs[key] = tuple(d[key])
    if "matrix" in d:
        # flat or nested 3 x 3 in JSON; a flat tuple keeps the config hashable
        kwargs["matrix"] = tuple(np.asarray(d["matrix"], dtype=float).reshape(-1).tolist())
    if "coeffs" in d:
        kwargs["coeffs"] = tuple(tuple(c) for c in d["coeffs"])
    return BoundaryData(**kwargs)


def config_from_dict(d: dict) -> ProblemConfig:
    bg = d["background"]
    solver = d.get("solver", {})
    spheres = []
    for sd in d["spheres"]:
        material = None
        if "material" in sd:
            material = LameParams(mu=sd["material"]["mu"], lam=sd["material"]["lambda"])
        spheres.append(SphereSpec(
            id=int(sd["id"]),
            frame=SphereFrame(center=tuple(sd["center"]), radius=float(sd["radius"])),
            role=sd["role"],
            enclosing=bool(sd.get("enclosing", False)),
            material=material,
            data=_data_from_dict(sd.get("data", {"kind": "zero"})),
        ))
    return ProblemConfig(
        spheres=tuple(spheres),
        background=LameParams(mu=bg["mu"], lam=bg["lambda"]),
        degree=int(d["degree"]),
        quad_margin=int(d.get("quad_margin", 0)),
        solver=SolverOptions(
            method=solver.get("method", "direct"),
            tol=float(solver.get("tol", 1e-6)),
            max_iter=int(solver.get("max_iter", 1000)),
            restart=int(solver.get("restart", 50)),
        ),
    )


def load_config(path) -> ProblemConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(config: ProblemConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
