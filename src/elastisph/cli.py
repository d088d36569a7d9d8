"""Command-line driver for the shipped experiments.

Subcommands: ``solve`` (one configuration or preset), ``one-sphere``
(reference-error table), ``convergence`` (error vs expansion degree),
``benchmark`` (lattice cost study), ``sweep-poisson`` (inclusion
compressibility sweep).  Every run writes a JSON manifest; outputs are
deterministic for identical configuration and flags.

Exit codes: 0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets
from .harmonics import VshExpansion, project
from .postprocess import (
    export_coefficients,
    norm_difference,
    one_sphere_reference,
    relative_error,
    run_manifest,
    write_manifest,
)
from .problem import ProblemConfig, ValidationError, load_config, validate
from .quadrature import rule_for_degree
from .spectra import DEFAULT_MODE, MODES
from .system import CouplingOperator, SolverError, Solution, assemble, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_FMT = "%.17g"


def _with_flags(config: ProblemConfig, args) -> ProblemConfig:
    """The configuration with the --solver and --tol flags applied; --solver
    config and no --tol keep the configuration's own method and tolerance."""
    solver = config.solver
    if args.solver != "config":
        solver = replace(solver, method=args.solver)
    if args.tol is not None:
        solver = replace(solver, tol=args.tol)
    return replace(config, solver=solver)


def _load(args) -> ProblemConfig:
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        config = load_config(args.config)
    elif args.preset:
        config = presets.named_config(args.preset, args.degree)
    else:
        raise ValueError("one of --config or --preset is required")
    if args.degree is not None:
        config = replace(config, degree=args.degree)
    # validation checks the memory of the solver path that will run
    return _with_flags(config, args)


def _solve_config(config: ProblemConfig, args) -> tuple[Solution, dict[str, float]]:
    """Solve on the path the configured method runs: GMRES on a
    matrix-free coupling operator, held only for this solve, or the dense
    system for the direct solver.  The operator's load is computed inside
    the solve."""
    t0 = time.perf_counter()
    if config.solver.method == "iterative":
        system = CouplingOperator(config, config.rule(), args.spectra_mode)
    else:
        system = assemble(config, mode=args.spectra_mode)
    t_assemble = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = solve(system, config)
    t_solve = time.perf_counter() - t0
    return solution, {"assembly": t_assemble, "solve": t_solve}


def _error_json(kind: str, detail) -> str:
    return json.dumps({"error": kind, "detail": detail}, indent=2)


def cmd_solve(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = validate(_load(args))
    solution, timings = _solve_config(config, args)
    coeff_path = out / "coefficients.csv"
    export_coefficients(solution.traces(), coeff_path)
    manifest = run_manifest(
        "solve", config, args.spectra_mode, config.rule().degree,
        timings, solution, outputs=[str(coeff_path)],
    )
    write_manifest(manifest, out / "manifest.json")
    print(f"solved {solution.dofmap.size} unknowns; residual {solution.residual:.3e}; "
          f"outputs in {out}")
    return EXIT_OK


def cmd_one_sphere(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    case = args.case
    degrees = args.degrees
    lex = presets.ONE_SPHERE_LEX[case]
    data = presets.one_sphere_data(case)
    frame = presets.one_sphere_config(case, 2).spheres[0].frame
    background = presets.one_sphere_config(case, 2).background
    sigma_exact = project(data, frame, lex, rule_for_degree(2 * lex))
    sigma_exact.sphere_id = 1
    reference = one_sphere_reference(sigma_exact, background, args.spectra_mode)

    rows = []
    for degree in degrees:
        config = validate(_with_flags(presets.one_sphere_config(case, degree), args))
        solution, _ = _solve_config(config, args)
        trace = solution.trace(1)
        rows.append((degree, relative_error(trace, reference),
                     norm_difference(trace, reference), trace.l2_norm()))
    path = out / f"one_sphere_case{case}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "relative_error", "norm_difference", "solution_norm"])
        for row in rows:
            writer.writerow([row[0]] + [_FMT % v for v in row[1:]])
    manifest = run_manifest(
        f"one-sphere case {case}", presets.one_sphere_config(case, max(degrees)),
        args.spectra_mode, rule_for_degree(2 * lex).degree, {}, outputs=[str(path)],
    )
    write_manifest(manifest, out / f"one_sphere_case{case}_manifest.json")
    for degree, re, nd, _ in rows:
        print(f"case {case} N={degree}: Re = {re:.6e} (norm diff {nd:.6e})")
    return EXIT_OK


def _aggregate_error(solution: Solution, references: dict[int, VshExpansion]) -> dict:
    per = {}
    num = den = 0.0
    for sid, ref in references.items():
        a = solution.trace(sid).pad_to(ref.max_degree)
        w = ref.norm_weights()
        n2 = float(np.sum((a.coeffs - ref.coeffs) ** 2 * w))
        d2 = float(np.sum(ref.coeffs ** 2 * w))
        per[sid] = np.sqrt(n2 / d2) if d2 > 0 else 0.0
        num += n2
        den += d2
    per["all"] = np.sqrt(num / den)
    return per


def cmd_convergence(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = _load(args)
    degrees = args.degrees
    if args.reference <= max(degrees):
        print(_error_json("validation", "reference degree must exceed every run degree"),
              file=sys.stderr)
        return EXIT_VALIDATION
    validate(base)

    def with_degree(n):
        return replace(base, degree=n)

    ref_solution, _ = _solve_config(with_degree(args.reference), args)
    references = ref_solution.traces()
    sphere_ids = sorted(references)
    path = out / "convergence.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "error_all"] + [f"error_sphere_{sid}" for sid in sphere_ids])
        for degree in degrees:
            solution, _ = _solve_config(with_degree(degree), args)
            err = _aggregate_error(solution, references)
            writer.writerow([degree, _FMT % err["all"]] + [_FMT % err[s] for s in sphere_ids])
            print(f"N={degree}: error {err['all']:.6e}")
    manifest = run_manifest("convergence", base, args.spectra_mode,
                            with_degree(max(degrees)).rule().degree, {}, outputs=[str(path)])
    write_manifest(manifest, out / "convergence_manifest.json")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for radius in args.radii:
        # the lattice cost study runs either solver on the dense system
        config = validate(_with_flags(presets.lattice_config(radius, degree=args.degree or 3),
                                      args), product="dense")
        t0 = time.perf_counter()
        system = assemble(config, mode=args.spectra_mode)
        t_assemble = time.perf_counter() - t0
        t0 = time.perf_counter()
        solution = solve(system, config)
        t_solve = time.perf_counter() - t0
        n_spheres = len(config.spheres)
        rows.append((radius, n_spheres, solution.dofmap.size, t_assemble, t_solve,
                     solution.iterations, solution.residual))
        print(f"R={radius}: {n_spheres} spheres, {solution.dofmap.size} dofs, "
              f"assemble {t_assemble:.2f}s, solve {t_solve:.2f}s, "
              f"iterations {solution.iterations}")
    path = out / "benchmark.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "n_spheres", "dofs", "t_assemble_s", "t_solve_s",
                         "iterations", "residual"])
        for row in rows:
            writer.writerow(row)
    manifest = run_manifest(
        "benchmark", presets.lattice_config(args.radii[-1], degree=args.degree or 3),
        args.spectra_mode, rule_for_degree(2 * (args.degree or 3)).degree, {},
        outputs=[str(path)],
    )
    write_manifest(manifest, out / "benchmark_manifest.json")
    return EXIT_OK


def cmd_sweep_poisson(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nu1_grid = np.linspace(args.nu1_min, args.nu1_max, args.steps)
    path = out / "poisson_sweep.csv"
    degree = args.degree or 3
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu0", "nu1", "lambda1", "trace_norm"])
        for nu0 in args.nu0:
            for nu1 in nu1_grid:
                config = validate(_with_flags(
                    presets.poisson_sweep_config(nu0, float(nu1), degree), args))
                solution, _ = _solve_config(config, args)
                norm = solution.trace(2).l2_norm()
                lam1 = config.spheres[0].material.lam
                writer.writerow([_FMT % nu0, _FMT % nu1, _FMT % lam1, _FMT % norm])
            print(f"nu0={nu0}: swept {len(nu1_grid)} values of nu1")
    manifest = run_manifest(
        "sweep-poisson", presets.poisson_sweep_config(args.nu0[0], args.nu1_min, degree),
        args.spectra_mode, rule_for_degree(2 * degree).degree, {}, outputs=[str(path)],
    )
    write_manifest(manifest, out / "poisson_sweep_manifest.json")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastisph",
        description="Boundary-integral elasticity with spherical inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spectra-mode", choices=MODES, default=DEFAULT_MODE)
        p.add_argument("--out-dir", default="elastisph-out")
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--solver", choices=["direct", "iterative", "config"],
                       default="config")
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default: the configuration's own)")

    p = sub.add_parser("solve", help="validate, assemble and solve one configuration")
    common(p)
    p.add_argument("--config", default=None, help="JSON configuration path")
    p.add_argument("--preset", default=None, choices=presets.PRESET_NAMES)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("one-sphere", help="reference-error table for the unit sphere")
    common(p)
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--degrees", type=_int_list, default=[2, 5, 8, 11, 14])
    p.set_defaults(func=cmd_one_sphere)

    p = sub.add_parser("convergence", help="trace error against a high-degree reference")
    common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None, choices=presets.PRESET_NAMES)
    p.add_argument("--degrees", type=_int_list, default=[4, 6, 8, 10, 12])
    p.add_argument("--reference", type=int, default=20)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("benchmark", help="lattice-inclusion cost study")
    common(p)
    p.add_argument("--radii", type=_float_list, default=[1.0, 2.0, 3.0])
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("sweep-poisson", help="inclusion compressibility sweep")
    common(p)
    p.add_argument("--nu0", type=_float_list, default=[1.0 / 6.0])
    p.add_argument("--nu1-min", type=float, default=presets.SWEEP_NU1_MIN)
    p.add_argument("--nu1-max", type=float, default=presets.SWEEP_NU1_MAX)
    p.add_argument("--steps", type=int, default=30)
    p.set_defaults(func=cmd_sweep_poisson)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(_error_json("validation", exc.errors), file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(_error_json("solver", str(exc)), file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, FileNotFoundError) as exc:
        print(_error_json("usage", str(exc)), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
