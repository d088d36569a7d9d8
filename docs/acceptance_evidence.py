"""Regenerate the tables of docs/acceptance_notes.md.

Run from the repository root:

    PYTHONPATH=src python docs/acceptance_evidence.py            # every table, a few minutes
    PYTHONPATH=src python docs/acceptance_evidence.py --part 6b  # or: data, 7, direct, folding, axis, oracle, 8
    PYTHONPATH=src python docs/acceptance_evidence.py --part 8 --runs 20

Each part prints markdown tables:

- ``6b``: each pinned Table-2 cell scored by ``relative_error`` and by
  ``norm_difference``, as a ratio to the pinned value, for every Lebedev
  rule from the smallest the projection admits (degree 2N) up to 59.
  The rule only changes how the boundary data are projected: a single
  sphere has no pair blocks.
- ``data``: the spectrum of the three-sphere smooth data, as the share
  of each sphere's surface-L2 norm that lies above degree L.
- ``7``: the smooth three-sphere error against the N=20 reference, next
  to the floor no degree-N trace can beat (the reference's own content
  above N), for the shipped rule and for ``quad_margin=40``.
- ``direct``: the direct solver's float32 factors, refined in float64,
  against float64 factors of the same bordered matrix, on the
  configurations of the acceptance criteria and a stiff inclusion, in
  both spectra modes: the D-weighted trace agreement, the consistency
  floors, rcond and the refinement steps of psi and x; and the sizes
  of the character classes that ``assemble`` holds and ``solve_direct``
  factors one at a time, with its traces against those of the same
  system assembled and solved with every unknown in one class.
- ``folding``: the pair blocks folded by each pair's reflection
  stabilizer, as ``assemble`` makes them, against the same blocks
  summed over every node of the rule, every entry computed and held as
  one class: the change of N (relative to its largest entry, the full
  rule's entries between character classes included) and of F, the
  D-weighted change
  of the direct solver's traces, both consistency floors, and the nodes
  at which the pair fields are evaluated, against pairs x rule size.
- ``axis``: the smooth three-sphere case at N = 3, 4, 6, 8, 12 and 20 in its
  axis frame (``system._frame``, one class per character and order |m|)
  and without it (every pair folded by its flips alone, as before the
  frame): each one's D-weighted trace error against a solve with rule-107
  blocks, the largest entry of N that the frame does not make (relative
  to N's largest), the trace change between the two, and the classes.
- ``oracle``: criterion 5's worst values (closed-form potentials against
  the kernel oracle, and the jump residuals of its ten l <= 3 modes), the
  single-layer jump-audit records of those ten modes and the full audit of
  l=0, each with its wall time and tracemalloc peak.
- ``8``: criterion 8's own measurement (``criterion_08_measurement`` of
  tests/test_acceptance.py: lattice solves at M = 2, 28 and 94 spheres,
  best of three, and the slope of the log-log fit), repeated in
  ``--runs`` fresh processes one after another: each run's times, slope
  and verdict against the bound [1.7, 2.3], and the count of passes.
  ``all`` leaves it out, since it times the host rather than the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from elastisph import system
from elastisph.harmonics import Family, ModeIndex, VshExpansion, project, sh_index
from elastisph.kernels_oracle import dl_offsurface, jump_audit, sl_offsurface
from elastisph.materials import LameParams
from elastisph.postprocess import norm_difference, one_sphere_reference, relative_error
from elastisph.presets import (ONE_SPHERE_LEX, SWEEP_NU1_MIN, lattice_config, one_sphere_config,
                               one_sphere_data, poisson_sweep_config, three_sphere_config)
from elastisph.problem import validate
from elastisph.quadrature import LEBEDEV_TABLE, SphereFrame, rule_for_degree
from elastisph.spectra import (MODE_AS_PRINTED, MODE_SELF_CONSISTENT, apply_double_layer,
                               apply_single_layer)
from elastisph.system import _bordered_solve, assemble, rigid_trace_vectors, solve_direct

# the pinned Table-2 cells of criterion 6b: (case, N) -> (value, relative tolerance)
PINNED = {(3, 2): (1.985e-1, 0.01), (3, 5): (4.020e-3, 0.01),
          (4, 2): (5.375e-1, 0.02), (4, 5): (6.797e-2, 0.02), (4, 8): (1.370e-4, 0.02)}
LARGEST_6B_RULE = 59
SMOOTH_DEGREES = (6, 8, 10, 12, 14, 16)
REFERENCE_DEGREE = 20
# reference degree a 1e-8 check near N=28 would need, sized in part 7
CHECK_REFERENCE_DEGREE = 32
# degree and rule of the data spectrum: rule 71 integrates products up
# to degree 71 exactly, so content above degree 39 barely aliases
SPECTRUM_DEGREE, SPECTRUM_RULE = 32, 71


def content_above(expansions, degree: int) -> float:
    """Sum of squared surface-L2 norms of the modes above ``degree``."""
    return sum(float(np.sum((e.coeffs ** 2 * e.norm_weights())[(degree + 1) ** 2:]))
               for e in expansions)


def part_6b() -> None:
    print("## 6b: metric / pinned value for each Lebedev rule projecting the data\n")
    for (case, n), (target, tol) in PINNED.items():
        lex = ONE_SPHERE_LEX[case]
        sigma = project(one_sphere_data(case), SphereFrame((0.0, 0.0, 0.0), 1.0), lex,
                        rule_for_degree(2 * lex))
        sigma.sphere_id = 1
        config = one_sphere_config(case, n)
        reference = one_sphere_reference(sigma, config.background)
        shipped = config.rule().degree
        print(f"case {case}, N={n}: pinned {target:.3e}, tolerance {tol:.0%}; "
              f"shipped rule {shipped}\n")
        # consecutive rules that print the same row share one line
        groups: list[tuple[list[int], str]] = []
        for degree, _ in LEBEDEV_TABLE:
            if degree < 2 * n or degree > LARGEST_6B_RULE:
                continue
            trace = solve_direct(assemble(config, rule=rule_for_degree(degree)), config).trace(1)
            re, nd = relative_error(trace, reference), norm_difference(trace, reference)
            row = (f"{re:.3e} | {re / target:.3f} | {nd:.3e} | {nd / target:.3f} | "
                   f"{'yes' if abs(nd - target) <= tol * target else 'no'}")
            if groups and groups[-1][1] == row and shipped not in groups[-1][0] + [degree]:
                groups[-1][0].append(degree)
            else:
                groups.append(([degree], row))
        print("| rule | relative_error | RE / pinned | norm_difference | ND / pinned | ND within tol |")
        print("|---|---|---|---|---|---|")
        for degrees, row in groups:
            rules = str(degrees[0]) if len(degrees) == 1 else f"{degrees[0]}-{degrees[-1]}"
            print(f"| {rules}{' (shipped)' if degrees == [shipped] else ''} | {row} |")
        print()


def part_data() -> None:
    print(f"## Data spectrum: share of the surface-L2 norm above degree L "
          f"(projected to degree {SPECTRUM_DEGREE} with rule {SPECTRUM_RULE})\n")
    config = three_sphere_config(SPECTRUM_DEGREE, "smooth")
    rule = rule_for_degree(SPECTRUM_RULE)
    loaded = [s for s in config.spheres if not s.data.is_zero()]
    tails = {}
    for s in loaded:
        exp = project(s.data, s.frame, SPECTRUM_DEGREE, rule)
        total = content_above([exp], -1)
        tails[s.id] = [np.sqrt(content_above([exp], L) / total) for L in range(SPECTRUM_DEGREE)]
    print("| L | " + " | ".join(f"sphere {s.id} (r={s.frame.radius:g})" for s in loaded) + " |")
    print("|---|" + "---|" * len(loaded))
    for L in range(0, SPECTRUM_DEGREE, 2):
        print(f"| {L} | " + " | ".join(f"{tails[s.id][L]:.2e}" for s in loaded) + " |")
    print()
    for s in loaded:
        first = next(L for L, t in enumerate(tails[s.id]) if t < 1e-8)
        print(f"sphere {s.id}: content above degree L falls below 1e-8 first at L = {first}")
    print()


def part_7() -> None:
    print(f"## 7: smooth three-sphere error against the N={REFERENCE_DEGREE} reference\n")
    rows = {}
    for margin in (0, 40):
        base = three_sphere_config(REFERENCE_DEGREE, "smooth", quad_margin=margin)
        ref = solve_direct(assemble(base), base).traces()
        den = content_above(ref.values(), -1)
        rows[margin] = []
        for n in SMOOTH_DEGREES:
            config = three_sphere_config(n, "smooth", quad_margin=margin)
            solution = solve_direct(assemble(config), config)
            num = sum(float(np.sum((solution.trace(sid).pad_to(r.max_degree).coeffs - r.coeffs) ** 2
                                   * r.norm_weights())) for sid, r in ref.items())
            err, floor = np.sqrt(num / den), np.sqrt(content_above(ref.values(), n) / den)
            rows[margin].append((n, err, floor))
    for margin, label in ((0, "shipped rule (quad_margin=0)"), (40, "quad_margin=40")):
        print(f"{label}: rule {three_sphere_config(SMOOTH_DEGREES[0], 'smooth', margin).rule().degree}"
              f" at N={SMOOTH_DEGREES[0]} to "
              f"{three_sphere_config(REFERENCE_DEGREE, 'smooth', margin).rule().degree}"
              f" at N={REFERENCE_DEGREE}\n")
        print("| N | err | floor | err / floor |")
        print("|---|---|---|---|")
        for n, err, floor in rows[margin]:
            print(f"| {n} | {err:.3e} | {floor:.3e} | {err / floor:.4f} |")
        print()
    size = 3 * (3 * (CHECK_REFERENCE_DEGREE + 1) ** 2 - 2)
    print(f"a reference at N={CHECK_REFERENCE_DEGREE}: {size} unknowns, "
          f"{size * size * 8 / 1e6:.0f} MB per dense copy\n")


def stiff_inclusion(degree: int):
    """The three-sphere case with its inclusion at mu = lambda = 1e6."""
    config = three_sphere_config(degree)
    stiff = dataclasses.replace(config.spheres[0], material=LameParams(1e6, 1e6))
    return dataclasses.replace(config, spheres=(stiff, *config.spheres[1:]))


@contextlib.contextmanager
def one_class():
    """While active, ``assemble`` holds every unknown as one character
    class, and ``solve_direct`` solves it as one."""
    classes = system._character_classes
    system._character_classes = lambda config, dofmap: system._class_layout(
        dofmap.degree, 0, len(dofmap.sphere_ids))
    try:
        yield
    finally:
        system._character_classes = classes


def part_direct() -> None:
    print("## Direct solver: float32 factors refined in float64, against float64 factors\n")
    configs = {
        "table3 N=3": three_sphere_config(3), "table3 N=8": three_sphere_config(8),
        "table3 N=8 piecewise": three_sphere_config(8, "piecewise"),
        "table3 N=16": three_sphere_config(16), "table3 N=20": three_sphere_config(20),
        "lattice r1": lattice_config(1), "lattice r2": lattice_config(2),
        "one sphere case 3 N=8": one_sphere_config(3, 8), "one sphere case 4 N=30": one_sphere_config(4, 30),
        "Poisson nu1 min": poisson_sweep_config(1.0 / 6.0, SWEEP_NU1_MIN),
        "stiff inclusion N=8": stiff_inclusion(8),
    }
    print("Each row solves one assembled system twice: with the float32 factors that "
          "`solve_direct` tries first (\"retried\" where it falls back to float64) and "
          "with float64 factors. Agreement is |x32 - x64|_D / |x64|_D; steps are the "
          "refinement steps of (psi, x), the most of any class. Classes are the unknowns "
          "of each character class, factored one at a time; the last column is "
          "|x - x_1|_D / |x_1|_D between `solve_direct` and the same solve with every "
          "unknown in one class.\n")
    print("| configuration | mode | unknowns | classes | trace agreement | floor, float32 | "
          "floor, float64 | floor rel. diff. | rcond, float32 | rcond, float64 | steps, float32 | "
          "steps, float64 | per class vs one class |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for label, config in configs.items():
        config = validate(config)
        for mode in (MODE_SELF_CONSISTENT, MODE_AS_PRINTED):
            dense = assemble(config, mode=mode)
            w = np.sqrt(dense.D)
            Z = rigid_trace_vectors(config, dense.dofmap, mode)
            classes = dense.Nmat.classes
            x64, floor64, rcond64, steps64 = _bordered_solve(dense, config, Z, np.float64)
            single = _bordered_solve(dense, config, Z, np.float32)
            if single is None:
                cells = ["retried", "—", f"{floor64:.6e}", "—", "—", f"{rcond64:.2e}", "—"]
            else:
                x32, floor32, rcond32, steps32 = single
                agreement = np.linalg.norm(w * (x32 - x64)) / np.linalg.norm(w * x64)
                cells = [f"{agreement:.1e}", f"{floor32:.6e}", f"{floor64:.6e}",
                         f"{abs(floor32 - floor64) / floor64:.1e}", f"{rcond32:.2e}", f"{rcond64:.2e}",
                         f"{steps32['psi']}, {steps32['x']}"]
            split = solve_direct(dense, config).lambda_
            with one_class():
                whole = solve_direct(assemble(config, mode=mode), config).lambda_
            split_change = np.linalg.norm(w * (split - whole)) / np.linalg.norm(w * whole)
            print("| " + " | ".join([label, mode, str(dense.dofmap.size),
                                     "/".join(str(rows.size) for rows in classes), *cells,
                                     f"{steps64['psi']}, {steps64['x']}", f"{split_change:.1e}"]) + " |")
    print()


@contextlib.contextmanager
def pair_nodes(nodes: list[int], unfold: bool):
    """Appends to ``nodes`` the nodes each chunk of pair blocks evaluates;
    with ``unfold``, every pair is summed over all nodes of the rule, all
    of its entries computed, while active: each pair is taken as one with
    no zero component (concentric pairs too, in place of their closed
    form)."""
    zero_axes, chunk_blocks = system._zero_axes, system._chunk_blocks

    def counted(background, degree, rows, y, *rest):
        nodes.append(len(y))
        return chunk_blocks(background, degree, rows, y, *rest)

    system._chunk_blocks = counted
    if unfold:
        system._zero_axes = lambda d: np.zeros(len(d), dtype=int)
    try:
        yield
    finally:
        system._zero_axes, system._chunk_blocks = zero_axes, chunk_blocks


def part_folding() -> None:
    print("## Pair blocks folded by their reflection stabilizer, against the full rule\n")
    configs = {
        "table3 N=8": three_sphere_config(8), "table3 N=8 piecewise": three_sphere_config(8, "piecewise"),
        "table3 N=20": three_sphere_config(20), "table3 N=20 piecewise": three_sphere_config(20, "piecewise"),
        "lattice r2": lattice_config(2), "lattice r3": lattice_config(3),
        "one sphere case 3 N=8": one_sphere_config(3, 8),
    }
    print("Each row assembles one configuration twice, folded (as shipped) and with every "
          "pair summed over all nodes of the rule and all of its entries computed, and "
          "solves both with "
          "`solve_direct`. The changes are max |N_fold - N_full| / max |N_full|, the same "
          "for F, and |x_fold - x_full|_D / |x_full|_D. The nodes are those at which the "
          "pair fields are evaluated.\n")
    print("| configuration | unknowns | rule | pairs | N change | F change | trace change | "
          "floor, folded | floor, full | nodes, folded | pairs x rule size |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for label, config in configs.items():
        config = validate(config)
        counts: dict[bool, list[int]] = {True: [], False: []}
        systems = {}
        for unfold in (True, False):
            # the full rule leaves rounding between the character classes:
            # held as one class, it is kept, compared and solved
            with pair_nodes(counts[unfold], unfold), (one_class() if unfold else contextlib.nullcontext()):
                systems[unfold] = assemble(config)
        full, folded = systems[True], systems[False]
        x_full, x_fold = solve_direct(full, config), solve_direct(folded, config)
        w = np.sqrt(full.D)
        full_n = full.Nmat.toarray()
        n_change = np.abs(folded.Nmat.toarray() - full_n).max() / np.abs(full_n).max()
        f_change = np.abs(folded.F - full.F).max() / np.abs(full.F).max()
        trace_change = (np.linalg.norm(w * (x_fold.lambda_ - x_full.lambda_))
                        / np.linalg.norm(w * x_full.lambda_))
        pairs = len(config.spheres) * (len(config.spheres) - 1)
        print("| " + " | ".join([
            label, str(full.dofmap.size), str(config.rule().degree), str(pairs),
            f"{n_change:.1e}", f"{f_change:.1e}", f"{trace_change:.1e}",
            f"{x_fold.diagnostics['consistency_floor']:.6e}",
            f"{x_full.diagnostics['consistency_floor']:.6e}",
            f"{sum(counts[False])}", f"{sum(counts[True])}"]) + " |")
    print()


@contextlib.contextmanager
def no_axis_frame():
    """While active, no configuration takes an axis frame: the pairs of a
    collinear one are folded by their flips alone, as before the frame."""
    frames = system._LINE_FRAMES
    system._LINE_FRAMES = {}
    try:
        yield
    finally:
        system._LINE_FRAMES = frames


def part_axis() -> None:
    print("## Collinear configurations in their axis frame, one class per order |m|\n")
    print("Each row solves the smooth three-sphere case with `solve_direct`, in the "
          "axis frame (as shipped) and without it (every pair folded by its flips "
          "alone), both with the shipped rule and data. The errors are "
          "|x - x_107|_D / |x_107|_D against the same case assembled with rule-107 "
          "blocks (no frame, same data). The dropped entry is the largest entry of N, "
          "relative to N's largest, that the frame does not make: the rule's aliasing "
          "between orders m = m' (mod 4), read against the same frame with every "
          "entry summed over the whole rule. The trace change is |x_frame - x_flips|_D "
          "/ |x_flips|_D.\n")
    print("| N | rule | unknowns | classes, flips | classes, frame (largest) | error, flips | "
          "error, frame | dropped entry | trace change |")
    print("|---|---|---|---|---|---|---|---|---|")
    reference_rule = rule_for_degree(LEBEDEV_TABLE[-1][0])
    for degree in (3, 4, 6, 8, 12, 20):
        config = validate(three_sphere_config(degree))
        sigma = system.build_sigma(config, degree, config.rule())
        framed = assemble(config, sigma=sigma)
        x_frame = solve_direct(framed, config).lambda_
        with no_axis_frame():
            flips = assemble(config, sigma=sigma)
            x_flips = solve_direct(flips, config).lambda_
            x_ref = solve_direct(assemble(config, rule=reference_rule, sigma=sigma), config).lambda_
        with pair_nodes([], unfold=True), one_class():
            full = assemble(config, sigma=sigma).Nmat.toarray()
        dropped = np.abs(framed.Nmat.toarray() - full).max() / np.abs(full).max()
        w = np.sqrt(framed.D)

        def error(x, ref):
            return np.linalg.norm(w * (x - ref)) / np.linalg.norm(w * ref)

        sizes = [rows.size for rows in framed.Nmat.classes]
        print(f"| {degree} | {config.rule().degree} | {framed.dofmap.size} | {len(flips.Nmat.classes)} | "
              f"{len(sizes)} ({max(sizes)}) | {error(x_flips, x_ref):.3e} | {error(x_frame, x_ref):.3e} | "
              f"{dropped:.1e} | {error(x_frame, x_flips):.1e} |")
    print()


def measured(compute):
    """``compute()``, its wall time in s and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = compute()
        return result, time.perf_counter() - start, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def oracle_potentials_worst() -> float:
    """Criterion 5's worst relative gap between the closed-form potentials
    of every unit mode of degree <= 3 and the oracle's, at its 14 points."""
    unit, p11 = SphereFrame((0.0, 0.0, 0.0), 1.0), LameParams(1.0, 1.0)
    dirs = np.random.default_rng(5).normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.concatenate([0.5 * dirs, 2.0 * dirs, 2.5 * dirs[:2]])
    worst = 0.0
    for ell in range(4):
        for m in range(-ell, ell + 1):
            for k in ((0,) if ell == 0 else (0, 1, 2)):
                density = VshExpansion.zeros(-1, ell)
                density.coeffs[sh_index(ell, m), k] = 1.0
                for oracle, closed in (
                        (sl_offsurface, apply_single_layer(unit, p11, density, pts)),
                        (dl_offsurface, apply_double_layer(unit, p11, density, pts, MODE_SELF_CONSISTENT))):
                    ref = oracle(density, unit, p11, pts, rule_degree=47)
                    worst = max(worst, float(np.max(np.abs(ref - closed)) / max(np.max(np.abs(ref)), 1e-30)))
    return worst


def part_oracle() -> None:
    print("## The kernel oracle: criterion 5 and the jump audit\n")
    p11 = LameParams(1.0, 1.0)
    modes = [ModeIndex(ell, 0, k) for ell in range(4) for k in ((Family.V,) if ell == 0 else tuple(Family))]
    worst_pot, pot_s, pot_mb = measured(oracle_potentials_worst)
    single, single_s, single_mb = measured(lambda: jump_audit(modes, p11, layers=("single",)))
    full, full_s, full_mb = measured(lambda: jump_audit([ModeIndex(0, 0, Family.V)], p11))
    worst_s = max(r.residual for r in single if r.identity == "single_layer_jump")
    worst_ts = max(r.residual for r in single if r.identity == "single_layer_traction_jump")
    print(f"criterion 5: potentials vs oracle {worst_pot:.2e}; jump residuals [[S]] {worst_s:.2e}, "
          f"[[TS]] {worst_ts:.2e}\n")
    print("| computation | wall time (s) | tracemalloc peak (MB) |")
    print("|---|---|---|")
    print(f"| criterion 5's 46 potentials, oracle and closed form | {pot_s:.2f} | {pot_mb:.1f} |")
    print(f"| single-layer audit of the ten l <= 3 modes | {single_s:.2f} | {single_mb:.1f} |")
    print(f"| full audit of V00 | {full_s:.2f} | {full_mb:.1f} |")
    print()
    print("| mode | layers | identity | residual | inferred |")
    print("|---|---|---|---|---|")
    for layers, records in (("single", single), ("full", full)):
        for r in records:
            inferred = "" if r.inferred is None else f"{r.inferred:.12e}"
            print(f"| {r.k}{r.ell},{r.m} | {layers} | {r.identity} | {r.residual:.12e} | {inferred} |")
    print()


# one run of criterion 8's measurement, printed as JSON by a fresh process
CRITERION_08_RUN = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "tests")!r})
from test_acceptance import criterion_08_measurement
counts, times, iters, slope = criterion_08_measurement()
print(json.dumps({{"counts": counts, "times": times, "iterations": iters, "slope": slope}}))
"""


def part_8(runs: int) -> None:
    print("## Criterion 8: the lattice-solve slope over isolated runs\n")
    print(f"{runs} runs of criterion 8's measurement, each in a fresh process, one after "
          "another: best-of-three solve times (assemble + GMRES) at M = 2, 28 and 94 and "
          "the log-log slope, which passes in [1.7, 2.3].\n")
    print("| run | M=2 (ms) | M=28 (ms) | M=94 (ms) | slope | pass |")
    print("|---|---|---|---|---|---|")
    slopes = []
    for run in range(1, runs + 1):
        out = subprocess.run([sys.executable, "-c", CRITERION_08_RUN], capture_output=True,
                             text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        slopes.append(result["slope"])
        times = [f"{1e3 * t:.2f}" for t in result["times"]]
        verdict = "yes" if 1.7 <= result["slope"] <= 2.3 else "no"
        print(f"| {run} | " + " | ".join(times) + f" | {result['slope']:.3f} | {verdict} |")
    q1, median, q3 = np.percentile(slopes, [25, 50, 75])
    passes = sum(1.7 <= s <= 2.3 for s in slopes)
    print(f"\npasses {passes}/{runs}; slope median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
          f"range {min(slopes):.3f}-{max(slopes):.3f}\n")


PARTS = {"6b": part_6b, "data": part_data, "7": part_7, "direct": part_direct,
         "folding": part_folding, "axis": part_axis, "oracle": part_oracle}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=(*PARTS, "8", "all"), default="all")
    parser.add_argument("--runs", type=int, default=20, help="isolated runs of part 8")
    args = parser.parse_args()
    for name, part in PARTS.items():
        if args.part in (name, "all"):
            part()
    if args.part == "8":
        part_8(args.runs)


if __name__ == "__main__":
    main()
