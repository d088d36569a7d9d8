"""Solution reconstruction, the analytic one-sphere reference, and exports.

The trace solution determines a single-layer density on every sphere;
displacement anywhere in the composite body is recovered by summing the
closed-form layer potentials.  Relative errors between trace expansions
use the exact basis norms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time

import numpy as np

from .harmonics import Family, VshExpansion, num_scalar_modes, per_degree, sh_degree_order
from .materials import LameParams
from .problem import ProblemConfig, ROLE_TRANSMISSION, config_to_dict, sphere_gaps
from .spectra import DEFAULT_MODE, adjoint_double_eigs, apply_single_layer, single_layer_eigs
from .system import Solution, c_rows


class ResonantDataError(ValueError):
    """Raised when boundary data excites a zero denominator mode.

    The adjoint double layer has eigenvalue exactly -1/2 on the
    constant (degree-1 W) traces, so data with mean (net-force) content
    cannot be inverted by the one-sphere closed form; the zero-mean
    compatibility condition removes those modes.
    """


def one_sphere_reference(
    sigma: VshExpansion,
    params: LameParams,
    mode: str = DEFAULT_MODE,
    resonance_tol: float = 1e-10,
) -> VshExpansion:
    """Exact trace solution of the single Neumann sphere, mode by mode.

    Each coefficient is scaled by tau_V / (1/2 + tau_K*).  Modes whose
    denominator vanishes (the rigid traces) must carry no data beyond
    ``resonance_tol`` relative to the data norm; they map to zero.
    """
    ells = np.arange(sigma.max_degree + 1)
    tau_v = per_degree(np.stack(single_layer_eigs(ells, params), axis=-1))
    den = per_degree(0.5 + np.stack(adjoint_double_eigs(ells, params, mode), axis=-1))
    c = sigma.coeffs
    resonant = np.abs(den) < 1e-12
    loud = resonant & (np.abs(c) > resonance_tol * max(sigma.l2_norm(), 1e-300))
    if loud.any():
        # report the first offender in (degree, family, order) order
        ell_of = per_degree(ells)
        ps, ks = np.nonzero(loud)
        first = np.lexsort((ps, ks, ell_of[ps]))[0]
        p, k = ps[first], ks[first]
        raise ResonantDataError(
            f"data has resonant content {c[p, k]:.3e} on the rigid "
            f"mode (l={ell_of[p]}, {Family(k).name}); impose the zero-mean "
            f"compatibility condition"
        )
    out = VshExpansion.zeros(sigma.sphere_id, sigma.max_degree)
    out.coeffs[~resonant] = tau_v[~resonant] / den[~resonant] * c[~resonant]
    return out


def relative_error(a: VshExpansion, b: VshExpansion) -> float:
    """Surface-L2 relative error |a - b| / |b|, padding the shorter one."""
    n = max(a.max_degree, b.max_degree)
    aa, bb = a.pad_to(n), b.pad_to(n)
    ref = bb.l2_norm()
    if ref == 0.0:
        raise ValueError("relative error against an identically zero reference")
    diff = VshExpansion(a.sphere_id, n, aa.coeffs - bb.coeffs)
    return diff.l2_norm() / ref


def norm_difference(a: VshExpansion, b: VshExpansion) -> float:
    """Relative difference of surface-L2 norms | |a| - |b| | / |b|.

    This is the metric of the published one-sphere error column; unlike
    ``relative_error`` it ignores how the two fields differ in shape.
    """
    ref = b.l2_norm()
    if ref == 0.0:
        raise ValueError("norm difference against an identically zero reference")
    return abs(a.l2_norm() - ref) / ref


class FieldEvaluator:
    """Displacement evaluation for a solved configuration.

    In the background region the field is the sum over spheres of the
    background single-layer potentials with densities C/r nu + Sigma;
    inside a transmission sphere it is the local single-layer potential
    with density S^-1 nu (local material).  Points inside Neumann
    cavities or outside the enclosing sphere have no material and are
    rejected, as are points within 1e-10 r of any interface.
    """

    def __init__(self, config: ProblemConfig, solution: Solution, mode: str | None = None):
        self.config = config
        self.mode = solution.mode if mode is None else mode
        self.solution = solution
        ells = np.arange(solution.dofmap.degree + 1)
        self._phi: dict[int, VshExpansion] = {}
        self._inner: dict[int, VshExpansion] = {}
        for s in config.spheres:
            nu, r = solution.trace(s.id), s.frame.radius
            C = per_degree(c_rows(s.role, s.material, s.sign, config.background, ells, self.mode))
            self._phi[s.id] = VshExpansion(
                s.id, nu.max_degree, C / r * nu.coeffs + solution.sigma[s.id].coeffs)
            if s.role == ROLE_TRANSMISSION:
                tau = per_degree(np.stack(single_layer_eigs(ells, s.material), axis=-1))
                self._inner[s.id] = VshExpansion(s.id, nu.max_degree, nu.coeffs / (r * tau))

    def _regions(self, pts: np.ndarray) -> np.ndarray:
        """Position in ``config.spheres`` of the inner sphere holding each
        point, or -1 for the background region."""
        spheres = self.config.spheres
        centers = np.array([s.frame.center for s in spheres], dtype=float)
        radii = np.array([s.frame.radius for s in spheres])
        enclosing = np.array([s.enclosing for s in spheres])
        dist = np.linalg.norm(pts[:, None, :] - centers, axis=-1)  # (points, spheres)
        surface = np.abs(dist - radii) < 1e-10 * radii
        inside = (dist < radii) & ~enclosing
        outside = (dist[:, enclosing] > radii[enclosing]).any(axis=1)
        bad = np.flatnonzero(surface.any(axis=1) | outside)
        if bad.size:
            i = bad[0]
            if surface[i].any():
                sid = spheres[int(np.argmax(surface[i]))].id
                raise ValueError(f"point {pts[i]} lies on the surface of sphere {sid}")
            raise ValueError(f"point {pts[i]} lies outside the enclosing sphere")
        return np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)

    def displacement(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        regions = self._regions(pts)
        background = regions < 0
        if np.any(background):
            sel = pts[background]
            acc = np.zeros_like(sel)
            for s in self.config.spheres:
                acc += apply_single_layer(s.frame, self.config.background, self._phi[s.id], sel)
            out[background] = acc
        for pos, s in enumerate(self.config.spheres):
            mask = regions == pos
            if not np.any(mask):
                continue
            if s.role != ROLE_TRANSMISSION:
                raise ValueError(f"point inside Neumann cavity {s.id}; displacement undefined")
            out[mask] = apply_single_layer(s.frame, s.material, self._inner[s.id], pts[mask])
        return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_FMT = "%.17g"


def export_coefficients(traces: dict[int, VshExpansion], path) -> None:
    """CSV of coefficients: sphere, ell, m, k, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sphere", "ell", "m", "k", "value"])
        for sid in sorted(traces):
            exp = traces[sid]
            for p in range(num_scalar_modes(exp.max_degree)):
                ell, m = sh_degree_order(p)
                for k in Family:
                    writer.writerow([sid, ell, m, k.name, _FMT % exp.coeffs[p, int(k)]])


def config_digest(config: ProblemConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def minimum_gap(config: ProblemConfig) -> float:
    """Smallest surface-to-surface distance between any two boundaries."""
    _ids, enclosing, _pairs, pair = sphere_gaps(config)
    return float(min(enclosing.min(initial=np.inf), pair.min(initial=np.inf)))


def run_manifest(
    command: str,
    config: ProblemConfig,
    mode: str,
    rule_degree: int,
    timings: dict[str, float],
    solution: Solution | None = None,
    outputs: list[str] | None = None,
) -> dict:
    gap = minimum_gap(config)
    manifest = {
        "command": command,
        "config_digest": config_digest(config),
        "spectra_mode": mode,
        "degree": config.degree,
        "rule_degree": rule_degree,
        "timings_seconds": timings,
        "minimum_gap": gap if np.isfinite(gap) else None,
        "outputs": outputs or [],
        "created_unix": time.time(),
    }
    if solution is not None:
        manifest["residual"] = solution.residual
        manifest["iterations"] = solution.iterations
        manifest["dofs"] = solution.dofmap.size
        manifest["solver"] = dict(solution.diagnostics)
    return manifest


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
