#!/usr/bin/env python3
"""One sha256 digest per operator term of each config's model.

For every config named on the command line this prints one line per term
of ``build_operators(config)`` (``free_diag``, ``pf``, ``A[0..2]``, ``C``,
``sigma_B``, ``A2``) and, where the model has a J_axis sector split, of
``ops.sectors.upper``, and of the split's pattern arrays (``indices``,
``indptr``, ``diagonal``, ``data_starts``), ``labels``, ``starts`` and
``leak_max``.  A sparse term's digest covers its dtype and the bytes of
its ``data``, ``indices`` and ``indptr``; a dense array's its dtype, shape
and bytes.  Two source trees build bitwise the same terms exactly when
they print the same lines:

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
        ops = build_operators(load_config(path, force_allow_massless=True))
        for name, value in terms("", ops):
            print(path, name, digest(value))
        try:
            split = ops.sectors
        except PflabError as err:
            print(path, "sectors", f"none ({type(err).__name__})")
            continue
        for name, value in terms("sectors.upper.", split.upper):
            print(path, name, digest(value))
        for name in ("indices", "indptr", "diagonal", "data_starts", "labels", "starts",
                     "leak_max"):
            print(path, f"sectors.{name}", digest(getattr(split, name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
