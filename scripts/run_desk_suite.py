#!/usr/bin/env python3
"""Run the full desk-model pipeline over the shipped configs.

For every config in configs/: model checks, the lowest spectrum with
degeneracy, two momentum sweeps with gap estimates (one along z, one along
x, which is off the axis of every shipped axial mode set and so is solved in
the full space), the bound report, and the sector decomposition (axial spin
configs only).  Outputs land in out/desk_suite/<config-stem>/<command>/.
The run ends with one line per output file but the manifests, its sha256
and its path under ``--out``, so two source trees write the same files
exactly when one ``diff`` of their printouts is empty:

    PYTHONPATH=src python scripts/run_desk_suite.py --configs configs --out OUT
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from pflab.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    print(f"$ pflab {' '.join(str(a) for a in argv)}")
    code = cli_main([str(a) for a in argv])
    print(f"  -> exit {code}\n")
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ROOT / "out" / "desk_suite", type=Path)
    parser.add_argument("--configs", default=ROOT / "configs", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    failures = []
    for cfg_path in sorted(args.configs.glob("*.json")):
        stem = cfg_path.stem
        print(f"=== {stem} ===")
        cfg = json.loads(cfg_path.read_text())
        base = args.out / stem

        if run(["model-check", "--config", cfg_path, "--out", base / "model_check",
                "--seed", args.seed]):
            failures.append((stem, "model-check"))
        if run(["spectrum", "--config", cfg_path, "--out", base / "spectrum",
                "--seed", args.seed, "--dump-vectors"]):
            failures.append((stem, "spectrum"))
        if run(["sweep", "--config", cfg_path, "--out", base / "sweep",
                "--seed", args.seed, "--p-grid", "axis=z;from=-0.5;to=0.5;steps=11"]):
            failures.append((stem, "sweep"))
        if run(["sweep", "--config", cfg_path, "--out", base / "sweep_x",
                "--seed", args.seed, "--p-grid", "axis=x;from=0;to=0.3;steps=4"]):
            failures.append((stem, "sweep_x"))
        if run(["bounds", "--config", cfg_path, "--out", base / "bounds",
                "--seed", args.seed]):
            failures.append((stem, "bounds"))
        if cfg.get("with_spin") and cfg.get("mode_set", {}).get("kind") == "axial":
            if run(["sectors", "--config", cfg_path, "--out", base / "sectors",
                    "--seed", args.seed]):
                failures.append((stem, "sectors"))

    for path in sorted(args.out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(args.out))
    if failures:
        print("nonzero exits:", failures)
        return 1
    print("desk suite complete:", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
