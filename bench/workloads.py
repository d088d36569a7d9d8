"""The benchmark's workloads: set-up, one timed operation, and its check.

Each workload object has four methods.  ``setup`` does everything a user
pays once before the first operation; ``inputs`` draws the seeded input
of the next operation; ``run`` is the timed operation; ``check`` judges
its output (untimed) and returns ``(evidence, errors)``.  The preset
geometries are the paper's; the seed only draws field points and
product vectors.  Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import numpy as np

from elastisph import postprocess, presets, problem, system

import checks

# workloads whose reference trace is committed under references/
SOLVE_REFERENCES = ("lattice_r3", "three_sphere_n20")

# share of field points drawn inside the transmission inclusion
INCLUSION_SHARE = 0.1
# field points per batch checked against the oracle
FIELD_CHECKED = 20
# relative perturbation of every reference under --corrupt-reference
CORRUPTION = 1e-2


def _config(preset: str, degree: int | None) -> problem.ProblemConfig:
    return problem.validate(presets.named_config(preset, degree))


class SolveWorkload:
    """One operation is ``assemble`` plus ``solve`` as the preset configures it."""

    def __init__(self, preset: str, degree: int | None, reference: str | None, corrupt: bool):
        self.preset, self.degree, self.reference_name = preset, degree, reference
        self.scale = 1.0 + CORRUPTION if corrupt else 1.0
        self._ref = None
        self._Z = None

    def setup(self) -> None:
        self.config = _config(self.preset, self.degree)
        self.config.rule()

    def inputs(self, rng: np.random.Generator):
        return None

    def run(self, _inputs):
        dense = system.assemble(self.config)
        return dense, system.solve(dense, self.config)

    def check(self, _inputs, output):
        dense, sol = output
        if self._ref is None:
            if self.reference_name is None:
                self._ref = checks.solve_reference(self.config)
            else:
                self._ref = checks.load_reference(self.reference_name)
            self._ref["lambda"] = self._ref["lambda"] * self.scale
            self._Z = system.rigid_trace_vectors(self.config, dense.dofmap, dense.mode)
        return checks.check_solve(self.config, dense, sol, self._ref, self._Z)


class MatvecWorkload:
    """One operation is one matrix-free product ``apply_operator``."""

    def __init__(self, preset: str, corrupt: bool):
        self.preset = preset
        self.scale = 1.0 + CORRUPTION if corrupt else 1.0

    def setup(self) -> None:
        self.config = _config(self.preset, None)
        self.dense = system.assemble(self.config)

    def inputs(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.dense.dofmap.size)

    def run(self, lam: np.ndarray) -> np.ndarray:
        return system.apply_operator(self.config, lam)

    def check(self, lam, product):
        return checks.check_matvec(self.dense, lam, product, self.scale)


class FieldWorkload:
    """One operation is ``FieldEvaluator.displacement`` on a batch of points."""

    def __init__(self, preset: str, degree: int, batch: int, corrupt: bool):
        self.preset, self.degree, self.batch = preset, degree, batch
        self.scale = 1.0 + CORRUPTION if corrupt else 1.0
        self._oracle = None

    def setup(self) -> None:
        self.config = _config(self.preset, self.degree)
        self.solution = system.solve(system.assemble(self.config), self.config)
        self.evaluator = postprocess.FieldEvaluator(self.config, self.solution)

    def inputs(self, rng: np.random.Generator):
        points = checks.field_points(rng, self.config, self.batch, INCLUSION_SHARE)
        n_in = int(round(INCLUSION_SHARE * self.batch))
        k_in = max(1, round(INCLUSION_SHARE * FIELD_CHECKED))
        subset = np.concatenate([
            rng.choice(n_in, k_in, replace=False),
            n_in + rng.choice(self.batch - n_in, FIELD_CHECKED - k_in, replace=False),
        ])
        return points, subset

    def run(self, inputs) -> np.ndarray:
        return self.evaluator.displacement(inputs[0])

    def check(self, inputs, u):
        if self._oracle is None:
            self._oracle = checks.FieldOracle(self.config, self.solution, self.scale)
        points, subset = inputs
        return checks.check_field(self._oracle, points, u, subset)


def make(name: str, corrupt: bool = False):
    """The workload of that name; ``tiny_*`` ones serve the harness self-test."""
    factories = {
        "lattice_r3": lambda: SolveWorkload("lattice_r3", None, "lattice_r3", corrupt),
        "three_sphere_n20": lambda: SolveWorkload("table3_smooth", 20, "three_sphere_n20", corrupt),
        "field_eval": lambda: FieldWorkload("table3_smooth", 16, 2000, corrupt),
        "matvec_r2": lambda: MatvecWorkload("lattice_r2", corrupt),
        "tiny_lattice_r1": lambda: SolveWorkload("lattice_r1", None, None, corrupt),
        "tiny_three_sphere_n4": lambda: SolveWorkload("table3_smooth", 4, None, corrupt),
        "tiny_field_eval": lambda: FieldWorkload("table3_smooth", 4, 50, corrupt),
        "tiny_matvec_r1": lambda: MatvecWorkload("lattice_r1", corrupt),
    }
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(factories)}")
    return factories[name]()


def solve_config(name: str) -> problem.ProblemConfig:
    """Validated configuration of a committed-reference solve workload."""
    workload = make(name)
    workload.setup()
    return workload.config
