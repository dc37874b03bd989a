#!/usr/bin/env python3
"""Dense vs Davidson eigensolve times at one BLAS thread, the data behind
``pflab.spectra.choose_method``.

Times ``solve_lowest`` with each method forced on the angular-momentum
sector blocks of the desk model (desk_e010) and of the N_max = 3 and 4
rungs of the cutoff ladder (real on these z-axis models), and on the full
matrices of dimensions 306 (desk_e010) and 1938 (N_max = 3), which are
complex, for 1, 2 and 6 pairs.  Each time is the best of three runs (one
run above dimension 1700: the complex full matrix of 1938, whose dense
solve takes seconds).  Prints one row per (dimension, pairs) with the
faster method and the one ``choose_method`` picks.  Then it prints the
range of cutoffs c ("dense up to dimension c", one for every pair count)
that lose the least time over all measured rows, where a row sent to its
slower method loses the difference of the two times, the rows that such a
cutoff still sends to the slower method, and whether ``DENSE_MAX_DIM``
lies in the range.  ``--json PATH`` also writes them.

    python3 scripts/solver_crossover.py [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pflab.io import load_config  # noqa: E402
from pflab.model import build_operators  # noqa: E402
from pflab.spectra import DENSE_MAX_DIM, choose_method, solve_lowest  # noqa: E402

MODELS = (("desk", "configs/desk_e010.json"), ("rung3", "perfbench/configs/rung3.json"),
          ("rung4", "perfbench/configs/rung4.json"))
FULL = ("desk", "rung3")
PAIRS = (1, 2, 6)


def best_time(H, n_eig: int, method: str) -> float:
    runs = 1 if H.shape[0] > 1700 else 3
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        solve_lowest(H, n_eig, method=method)
        best = min(best, time.perf_counter() - t0)
    return best


def matrices():
    """(source, H) for each distinct sector dimension and each full matrix."""
    for name, path in MODELS:
        config = load_config(ROOT / path)
        ops = build_operators(config)
        t = ops.axis_coordinate(config.p)
        split = ops.sectors
        seen = set()
        # sector -z is the mirror image of +z, with the same dimension
        labels = split.labels[split.first_upper:]
        for label, block in zip(labels, split.upper_blocks(t, config.e)):
            if block.shape[0] not in seen:
                seen.add(block.shape[0])
                yield f"{name} sector {label:+.1f}", block
        if name in FULL:
            yield f"{name} full", ops.linear.hamiltonian(config.p, config.e)


def lost_time(rows, cutoff: int) -> float:
    """Seconds lost over ``rows`` by sending dimensions <= cutoff to dense and
    the others to Davidson, against always picking the faster method."""
    return sum(abs(r["dense_s"] - r["davidson_s"]) for r in rows
               if (r["dim"] <= cutoff) != (r["faster"] == "dense"))


def least_loss_cutoff(rows) -> dict:
    """The cutoffs [lowest, below) that lose the least time over ``rows``
    (the loss is constant between measured dimensions), that loss, the rows
    such a cutoff sends to the slower method, and DENSE_MAX_DIM with its
    loss and whether it lies in the range."""
    dims = sorted({r["dim"] for r in rows})
    lowest = min([0, *dims], key=lambda c: lost_time(rows, c))
    below = min((d for d in dims if d > lowest), default=None)
    slower = [r for r in rows if (r["dim"] <= lowest) != (r["faster"] == "dense")]
    return {
        "lowest": lowest,
        "below": below,
        "lost_s": lost_time(rows, lowest),
        "slower_rows": [(r["source"], r["dim"], r["pairs"],
                         max(r["dense_s"], r["davidson_s"]) / min(r["dense_s"], r["davidson_s"]))
                        for r in slower],
        "dense_max_dim": DENSE_MAX_DIM,
        "dense_max_dim_lost_s": lost_time(rows, DENSE_MAX_DIM),
        "inside": lowest <= DENSE_MAX_DIM and (below is None or DENSE_MAX_DIM < below),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="also write the table and the fit here")
    args = parser.parse_args()
    rows = []
    print(f"{'source':<22} {'dtype':<10} {'dim':>5} {'pairs':>5} {'dense_s':>9} "
          f"{'davidson_s':>10}  faster   choose_method")
    for source, H in matrices():
        for k in PAIRS:
            if k >= H.shape[0]:
                continue
            row = {"source": source, "dtype": H.dtype.name, "dim": H.shape[0], "pairs": k,
                   "dense_s": best_time(H, k, "dense"),
                   "davidson_s": best_time(H, k, "davidson")}
            row["faster"] = "dense" if row["dense_s"] <= row["davidson_s"] else "davidson"
            row["chosen"] = choose_method(H.shape[0])
            rows.append(row)
            print(f"{source:<22} {row['dtype']:<10} {row['dim']:>5} {k:>5} {row['dense_s']:>9.4f} "
                  f"{row['davidson_s']:>10.4f}  {row['faster']:<8} {row['chosen']}")
    fit = least_loss_cutoff(rows)
    print(f"\ncutoffs losing the least time: [{fit['lowest']}, {fit['below']}) lose "
          f"{fit['lost_s']:.4f} s; DENSE_MAX_DIM {DENSE_MAX_DIM} loses "
          f"{fit['dense_max_dim_lost_s']:.4f} s, {'inside' if fit['inside'] else 'OUTSIDE'}")
    for source, dim, k, ratio in fit["slower_rows"]:
        print(f"    slower method picked: {source} (dim {dim}, {k} pairs), {ratio:.2f}x")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"blas_threads": 1, "rows": rows, "least_loss_cutoff": fit}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
