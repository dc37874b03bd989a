#!/usr/bin/env python3
"""Cutoff-ladder study of the pull-through photon-number bound.

Prints <N_f>, e^2 Theta(p), and their ratio along two ladders:

  * mode-resolution: 2 -> 3 -> 4 radial shells covering the same ball,
    at fixed N_max = n_max = 2 (the ratio decreases: coarse shell sums
    overestimate the pull-through integrand near its peak);
  * photon-number: N_max = n_max in 1 -> 2 -> 3 at the finest shells
    (the ratio is flat to ~1e-5: the coupling-squared dressing is already
    saturated by single-photon states at desk couplings).

Also prints the <N_f> ~ e^2 scaling across small couplings.
"""

import argparse
import sys

import numpy as np

from pflab import bounds
from pflab.fock import axial_mode_set
from pflab.model import Dispersion, FormFactor, ModelConfig
from pflab.spectra import (detect_ground_cluster, model_operators, solve_model,
                           sweep_energy_curve)

SHELL_LADDER = ([0.0, 1.7, 3.4], [0.0, 1.1, 2.2, 3.4], [0.0, 0.6, 1.2, 2.2, 3.4])


def desk_config(edges, e, p, N_max=2, n_max=2):
    return ModelConfig(
        dispersion=Dispersion(kind="massive", m_ph=1.0),
        form_factor=FormFactor(kind="gaussian", lam=1.0),
        e=e, p=p, with_spin=True,
        mode_set=axial_mode_set(edges), N_max=N_max, n_max=n_max,
    )


def bound_ratio(ops, cfg):
    """The basis dimension and the photon-number check of ``cfg``, solved
    from ``ops``, the operator set of its model."""
    cluster = detect_ground_cluster(solve_model(ops, cfg.p, cfg.e, 6))
    integral = bounds.photon_number_integral(cfg, sweep_energy_curve(ops, cfg))
    chk = bounds.photon_number_check(cluster, ops.basis, cfg, integral)
    return ops.basis.dimension, chk


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e", type=float, default=0.1)
    parser.add_argument("--pz", type=float, default=0.4)
    args = parser.parse_args()
    p = (0.0, 0.0, args.pz)

    print(f"coupling e = {args.e}, p = {p}\n")
    print("mode-resolution ladder (N_max = n_max = 2):")
    print(f"{'shells':>7} {'dim':>6} {'<N_f>':>13} {'e^2 Theta':>13} {'ratio':>9}")
    for edges in SHELL_LADDER:
        cfg = desk_config(edges, args.e, p)
        dim, chk = bound_ratio(model_operators(cfg), cfg)
        print(f"{len(edges) - 1:>7} {dim:>6} {chk.nf_max:>13.6e} "
              f"{chk.bound:>13.6e} {chk.ratio:>9.5f}")

    print("\nphoton-number ladder (finest shells):")
    print(f"{'N_max':>7} {'dim':>6} {'<N_f>':>13} {'e^2 Theta':>13} {'ratio':>9}")
    for N in (1, 2, 3):
        cfg = desk_config(SHELL_LADDER[-1], args.e, p, N_max=N, n_max=N)
        dim, chk = bound_ratio(model_operators(cfg), cfg)
        print(f"{N:>7} {dim:>6} {chk.nf_max:>13.6e} "
              f"{chk.bound:>13.6e} {chk.ratio:>9.5f}")

    print("\ncoupling scaling at the finest cutoffs:")
    print(f"{'e':>7} {'<N_f>':>13} {'<N_f>/e^2':>13}")
    finest = model_operators(desk_config(SHELL_LADDER[-1], 0.0, p))   # serves every e
    for e in (0.025, 0.05, 0.1):
        _, chk = bound_ratio(finest, desk_config(SHELL_LADDER[-1], e, p))
        print(f"{e:>7} {chk.nf_max:>13.6e} {chk.nf_max / e**2:>13.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
