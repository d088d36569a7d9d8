"""Regenerate the committed reference traces of the solve workloads.

Run from the repository root:  python3 bench/make_references.py
Each reference is the direct solve of the workload's preset plus the
constants of its trace error bound (see ``checks.solve_reference``).
It needs about 1 GB of memory and a few minutes on two cores.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    for name in workloads.SOLVE_REFERENCES:
        config = workloads.solve_config(name)
        ref = checks.solve_reference(config)
        path = checks.save_reference(name, ref)
        print(f"{name}: kappa_hat {ref['kappa_hat']:.4g}, Dmax/Dmin {ref['d_ratio']:.4g}, "
              f"residual {ref['residual']:.3e}, trace bound "
              f"{checks.trace_bound(config, ref):.3e} -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
