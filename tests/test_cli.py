import json
import re

import numpy as np
import pytest

from elastisph import harmonics, problem, system
from elastisph.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from elastisph.presets import one_sphere_config, one_sphere_data, three_sphere_config
from elastisph.problem import config_to_dict, load_config, save_config


@pytest.fixture
def table3_path(tmp_path):
    path = tmp_path / "table3.json"
    save_config(three_sphere_config(3), path)
    return path


def test_solve_preset(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--preset", "one_sphere_case1", "--degree", "3",
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spectra_mode"] == "self_consistent"
    assert manifest["degree"] == 3
    assert (out / "coefficients.csv").exists()


def test_solve_config_file(table3_path, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(table3_path), "--out-dir", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["minimum_gap"] == pytest.approx(0.9)
    assert manifest["iterations"] is None  # direct solver default


def test_direct_solver_recorded(table3_path, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(table3_path), "--solver", "direct",
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    solver = manifest["solver"]
    assert solver["solver_path"] == "bordered_lu"
    assert solver["null_dim"] == 6
    assert 0.0 < solver["consistency_floor"] < 1e-3
    assert "solver" not in manifest["timings_seconds"]


def test_direct_solver_precision_recorded(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--preset", "table3_smooth", "--degree", "8", "--solver", "direct",
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert (solver["solver_path"], solver["factorisation"]) == ("bordered_lu", "float32")
    assert solver["rcond"] >= 2.0**-20
    steps = solver["refinement_steps"]
    assert set(steps) == {"psi", "x"}
    assert all(1 <= s <= 30 for s in steps.values())
    # the centres lie on the x axis: solved in the frame where that line is
    # the z axis, one class per pattern of signs under the x and y flips
    # (bits 0 and 1 of its number) and order |m|, each holding those modes
    # of all three spheres
    active = system.DofMap(8, (1,)).active_mask()
    signs = harmonics.reflection_signs(8)[[1, 2]][:, active]
    ells = harmonics.per_degree(np.arange(9))
    orders = np.repeat(np.abs(np.arange(81) - ells * ells - ells), 3)[active]
    counts = np.bincount(np.array([1, 2]) @ (signs < 0.0) + 4 * orders)
    assert len(counts[counts > 0]) == 18
    assert solver["characters"] == (3 * counts[counts > 0]).tolist()
    # N is held as one float64 block per class, as the record names
    assert solver["product"] == "dense"
    assert solver["held_block_bytes"] == sum(8 * (3 * int(c)) ** 2 for c in counts[counts > 0])


def test_dense_memory_refused(table3_path, tmp_path, monkeypatch, capsys):
    # table3 at N=3 has 138 unknowns in eight classes of at most 27: their
    # blocks of Nmat (22 320 bytes) and the largest class's float64 bordered
    # block (8 * 33^2 = 8 712 bytes) need 31 KB
    assert system.solver_bytes(problem.load_config(table3_path), "dense") == 31032
    monkeypatch.setattr(problem, "available_memory", lambda: 2**14)
    rc = main(["solve", "--config", str(table3_path), "--solver", "direct",
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert any("memory available" in line for line in err["detail"])
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_nested_matrix_config_iterative(tmp_path):
    # JSON may give the linear data's matrix as 3 x 3 rows; it loads flat
    d = config_to_dict(one_sphere_config(2, 3))
    d["solver"]["method"] = "iterative"
    d["spheres"][0]["data"]["matrix"] = [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(d))
    config = load_config(path)
    assert config.spheres[0].data == one_sphere_data(2)
    hash(config)
    rc = main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert (manifest["solver"]["solver_path"], manifest["solver"]["product"]) == (
        "gmres", "matrix_free")


def test_solver_flag_and_mode_recorded(table3_path, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(table3_path), "--solver", "iterative",
               "--tol", "1e-8", "--spectra-mode", "as_printed", "--out-dir", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spectra_mode"] == "as_printed"
    assert 1 <= manifest["iterations"] < 100
    solver = manifest["solver"]
    assert solver["solver_path"] == "gmres"
    # tol 1e-8 sits below this load's consistency floor (3.7e-5): the
    # bordered GMRES measures the floor instead of running its budget
    assert 0.0 < solver["consistency_floor"] < 1e-3
    assert solver["null_dim"] == 3  # translations only in as_printed mode
    history = solver["residual_history"]
    assert len(history) == manifest["iterations"]
    assert history[-1] <= 1e-8


def test_lattice_r5_matrix_free(tmp_path):
    # GMRES on the held distinct blocks: 22 356 unknowns, whose dense Nmat
    # alone would take 4 GB
    out = tmp_path / "r5"
    system._distinct_pairs.cache_clear()
    rc = main(["solve", "--preset", "lattice_r5", "--out-dir", str(out)])
    assert rc == EXIT_OK
    # the pairs are grouped once: for validate's memory estimate, and the
    # operator reuses that grouping
    groupings = system._distinct_pairs.cache_info()
    assert (groupings.misses, groupings.hits) == (1, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    solver = manifest["solver"]
    assert (solver["solver_path"], solver["product"]) == ("gmres", "matrix_free")
    # one block per key up to the coordinate reflections of the displacement
    assert (solver["held_blocks"], solver["pairs"]) == (698, 235710)
    assert solver["held_block_bytes"] == 8 * 698 * 46**2
    assert manifest["dofs"] == 22356
    assert 1 <= manifest["iterations"] == len(solver["residual_history"])
    assert manifest["residual"] <= 2e-6  # twice the preset's tolerance


def test_tol_applies_to_configured_solver(tmp_path):
    # lattice_r2 configures GMRES; --tol replaces its tolerance
    iterations = []
    for tol in ("1e-2", "1e-12"):
        out = tmp_path / tol
        rc = main(["solve", "--preset", "lattice_r2", "--tol", tol, "--out-dir", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver"]["solver_path"] == "gmres"
        iterations.append(manifest["iterations"])
    assert iterations[0] < iterations[1]


@pytest.mark.parametrize("field,value", [("max_iter", 0), ("restart", 0), ("restart", -1)])
def test_solver_budget_below_one_exit_code(tmp_path, capsys, field, value):
    d = config_to_dict(three_sphere_config(3))
    d["solver"] = {"method": "iterative", field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    rc = main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    assert "at least 1" in json.loads(capsys.readouterr().err)["detail"]


def test_solver_failure_exit_code(tmp_path, capsys):
    # GMRES cannot reach tol 1e-30: the SolverError raised inside the
    # per-degree loop of one-sphere must end as the solver JSON and exit 3
    rc = main(["one-sphere", "--case", "1", "--degrees", "2", "--solver", "iterative",
               "--tol", "1e-30", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_SOLVER
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "solver"
    assert "GMRES did not reach tol=1e-30" in err["detail"]
    # the quoted residual is the returned iterate's, recomputed: it failed
    # the tolerance, unlike the Hessenberg estimate (0 after a breakdown)
    assert "breakdown" in err["detail"]
    achieved = float(re.search(r"true relative residual is (\S+)$", err["detail"]).group(1))
    assert achieved > 1e-30


def test_validation_failure_exit_code(tmp_path, capsys):
    cfg = three_sphere_config(3)
    bad = cfg.spheres[0].__class__(
        id=1, frame=cfg.spheres[1].frame, role="neumann", data=cfg.spheres[1].data)
    from elastisph.problem import ProblemConfig
    bad_cfg = ProblemConfig(
        spheres=(bad,) + cfg.spheres[1:], background=cfg.background, degree=3)
    path = tmp_path / "bad.json"
    save_config(bad_cfg, path)
    rc = main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert any("overlap" in line for line in err["detail"])


def test_missing_input(tmp_path):
    rc = main(["solve", "--out-dir", str(tmp_path)])
    assert rc == EXIT_VALIDATION


def test_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["solve", "--preset", "table3_smooth", "--degree", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
    assert (out1 / "coefficients.csv").read_bytes() == (out2 / "coefficients.csv").read_bytes()


def test_one_sphere_command(tmp_path):
    out = tmp_path / "os"
    rc = main(["one-sphere", "--case", "1", "--degrees", "2,5", "--out-dir", str(out)])
    assert rc == EXIT_OK
    rows = (out / "one_sphere_case1.csv").read_text().strip().splitlines()
    assert rows[0].startswith("N,relative_error")
    for line in rows[1:]:
        assert float(line.split(",")[1]) < 1e-12


def test_convergence_command(table3_path, tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--config", str(table3_path), "--degrees", "2,4",
               "--reference", "6", "--out-dir", str(out)])
    assert rc == EXIT_OK
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rc == EXIT_OK


def test_convergence_bad_reference(table3_path, tmp_path):
    rc = main(["convergence", "--config", str(table3_path), "--degrees", "2,4",
               "--reference", "4", "--out-dir", str(tmp_path)])
    assert rc == EXIT_VALIDATION


def test_direct_lattice_r5_refused_against_available_memory(tmp_path, monkeypatch, capsys):
    # one class of 22 356 unknowns, charged 7.45 GiB, against 6 GiB available
    monkeypatch.setattr(problem, "_mem_available", lambda: 6 * 2**30)
    monkeypatch.setattr(problem, "_CGROUP_LIMITS", ())

    def refused(*_args, **_kwargs):
        raise AssertionError("assembled a system that validation should refuse")

    monkeypatch.setattr(system, "assemble", refused)
    monkeypatch.setattr("elastisph.cli.assemble", refused)
    rc = main(["solve", "--preset", "lattice_r5", "--solver", "direct", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert any("the dense system of 22356 unknowns needs about 7.45 GiB" in line for line in err["detail"])


def test_benchmark_small(tmp_path):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--radii", "1", "--out-dir", str(out)])
    assert rc == EXIT_OK
    rows = (out / "benchmark.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[1] == "2"  # sphere count at R=1


def test_benchmark_charges_dense_memory(tmp_path, monkeypatch, capsys):
    # the cost study runs GMRES on the dense system: lattice r5's Nmat is
    # 3.7 GiB, though its matrix-free operator would fit in 1 GiB
    monkeypatch.setattr(problem, "available_memory", lambda: 2**30)
    rc = main(["benchmark", "--radii", "5", "--out-dir", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert any("the dense system of 22356 unknowns" in line for line in err["detail"])


def test_sweep_poisson_small(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep-poisson", "--nu0", "0.25", "--steps", "3",
               "--nu1-min", "-0.5", "--nu1-max", "0.4", "--out-dir", str(out)])
    assert rc == EXIT_OK
    rows = (out / "poisson_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    norms = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(np.isfinite(norms))
