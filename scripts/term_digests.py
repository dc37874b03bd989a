#!/usr/bin/env python3
"""One sha256 digest per operator term of each config's model.

For every config named on the command line this prints one line per term
of ``build_operators(config).linear`` (``free_diag``, ``pf``, ``A[0..2]``,
``C``, ``sigma_B``, ``A2``), and of H(p, e) formed from them at the config's
(p, e) and at p = (0.1, -0.2, 0.3) off the axis.  Where the model has a
J_axis sector split, it prints one line per term of ``ops.sectors.upper``
and per array of its ``pattern`` (``indices``, ``indptr``, ``diagonal``,
``positions[k]``), for ``labels``, ``starts`` and ``leak_max``, per
sector's ``to_linear`` (the map back to the linear basis, through the
mirror for a sector below 0), and per block of ``upper_blocks`` at the
config's (t, e).  A sparse matrix's
digest covers its dtype and the bytes of its ``data``, ``indices`` and
``indptr``; a dense array's its dtype, shape and bytes.  Two source trees
build bitwise the same terms and matrices exactly when they print the
same lines:

    PYTHONPATH=src python scripts/term_digests.py configs/*.json
"""

import argparse
import hashlib
import sys

import numpy as np
import scipy.sparse as sp

from pflab.errors import PflabError
from pflab.io import load_config
from pflab.model import build_operators

OFF_AXIS = (0.1, -0.2, 0.3)


def digest(value) -> str:
    h = hashlib.sha256()
    if sp.issparse(value):
        h.update(str(value.dtype).encode())
        for part in (value.data, value.indices, value.indptr):
            h.update(str(part.dtype).encode() + np.ascontiguousarray(part).tobytes())
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def terms(prefix: str, t):
    yield f"{prefix}free_diag", t.free_diag
    yield f"{prefix}pf", t.pf
    for mu, op in enumerate(t.A):
        yield f"{prefix}A[{mu}]", op
    yield f"{prefix}C", t.C
    yield f"{prefix}sigma_B", t.sigma_B
    yield f"{prefix}A2", t.A2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="JSON model configs")
    args = parser.parse_args(argv)
    for path in args.configs:
        config = load_config(path, force_allow_massless=True)
        ops = build_operators(config)
        for name, value in terms("", ops.linear):
            print(path, name, digest(value))
        print(path, "hamiltonian(config)", digest(ops.linear.hamiltonian(config.p, config.e)))
        print(path, "hamiltonian(off-axis)", digest(ops.linear.hamiltonian(OFF_AXIS, config.e)))
        try:
            split = ops.sectors
        except PflabError as err:
            print(path, "sectors", f"none ({type(err).__name__})")
            continue
        for name, value in terms("sectors.upper.", split.upper):
            print(path, name, digest(value))
        pattern = split.upper.pattern
        for name in ("indices", "indptr", "diagonal"):
            print(path, f"sectors.upper.pattern.{name}", digest(getattr(pattern, name)))
        for k, positions in enumerate(pattern.positions):
            print(path, f"sectors.upper.pattern.positions[{k}]", digest(positions))
        for name in ("labels", "starts", "leak_max"):
            print(path, f"sectors.{name}", digest(getattr(split, name)))
        for z, to_linear in zip(split.labels, split.to_linear):
            print(path, f"sectors.to_linear[{z:+g}]", digest(to_linear))
        t = ops.axis_coordinate(config.p)
        if t is None:
            print(path, "sectors.upper_blocks", "none (p off the axis)")
            continue
        for z, block in zip(split.labels[split.first_upper:], split.upper_blocks(t, config.e)):
            print(path, f"sectors.upper_blocks[{z:+g}]", digest(block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
