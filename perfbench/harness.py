"""Closed-loop, single-client runner: runs a workload's operations one after
another through ``pflab.cli.main`` in this process, times each one, and
checks its outputs.

An operation fails on a nonzero exit, on an uncaught exception, or on a
failed output check.  A failed operation is charged OP_TIME_LIMIT_S (or its
measured time, if longer) in every time metric, so that a later fix can
never read as a slowdown.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import Tracer
from workloads import CHECKS, WARMUP, CheckFailed, Op, load_references

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
OP_TIME_LIMIT_S = 30.0
SETUP_REPEATS = 2         # set-ups timed per batch; a batch runs before every pass


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def import_cli():
    """Import ``pflab.cli`` from this checkout's ``src``, never from elsewhere."""
    cli_file = SRC / "pflab" / "cli.py"
    if not cli_file.is_file():
        raise SetupError(f"{cli_file.relative_to(ROOT)} not found: run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    import pflab.cli

    if Path(pflab.cli.__file__).resolve() != cli_file.resolve():
        raise SetupError(f"pflab.cli imported from {pflab.cli.__file__}, not {cli_file}")
    return pflab.cli


def time_setup(configs: list[str], repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of ``repeats`` fresh interpreters that each import pflab.cli
    and load the configs.  The bytecode cache is on, as for an installed CLI,
    and kept under OUT_ROOT so that nothing is written outside the checkout."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pflab.cli; "
            "from pflab.io import load_config; [load_config(p) for p in sys.argv[2:]]")
    argv = [sys.executable, "-c", code, str(SRC), *configs]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT_ROOT / "pycache")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class CheckContext:
    """pflab calls the checks need; made outside any traced window."""

    def __init__(self):
        from pflab.io import load_config, read_eigenvectors
        from pflab.model import assemble_hamiltonian, build_basis

        self._load = load_config
        self._build = build_basis
        self._assemble = assemble_hamiltonian
        self.read_eigenvectors = read_eigenvectors
        self._hamiltonians: dict[str, object] = {}

    def hamiltonian(self, config: str):
        if config not in self._hamiltonians:
            cfg = self._load(ROOT / config)
            self._hamiltonians[config] = self._assemble(cfg, self._build(cfg))
        return self._hamiltonians[config]


@dataclass
class OpResult:
    op: Op
    elapsed: float
    error: Optional[str] = None
    check_failed: bool = False
    digest: Optional[str] = None
    cpu_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def charged(self) -> float:
        return self.elapsed if self.ok else max(self.elapsed, OP_TIME_LIMIT_S)


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file except manifest.json, the one output
    allowed to differ between runs."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, refs: Optional[dict] = None):
        self.cli = import_cli()
        self.seed = seed
        self.out = OUT_ROOT / workload
        self.refs = load_references() if refs is None else refs
        self.ctx = CheckContext()

    def run_op(self, op: Op, tracer: Optional[Tracer] = None, check: bool = True,
               out_dir: Optional[Path] = None) -> OpResult:
        out_dir = out_dir or self.out / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = op.argv(out_dir, self.seed)
        error = None
        log = io.StringIO()
        if tracer:
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli.main(argv)
        except SystemExit as err:
            code = err.code
        except Exception as err:  # the op boundary: record the failure, keep running
            code = None
            error = f"{type(err).__name__}: {err}"
            log.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            cpu_s = time.process_time() - cpu0
            if tracer:
                tracer.uninstall()
        if error is None and code != 0:
            error = f"exit {code}: {log.getvalue().strip().splitlines()[-1:]}"
        result = OpResult(op, elapsed, error, cpu_s=cpu_s)
        if error is None and check:
            try:
                CHECKS[op.command](op, out_dir, self.refs, self.ctx)
            except CheckFailed as err:
                result.error = f"CheckFailed: {err}"
                result.check_failed = True
        if result.ok:
            result.digest = output_digest(out_dir)
        return result

    def warm_up(self) -> None:
        """Untimed first op: loads lazily imported code and BLAS kernels.  Its
        outcome is not counted; the same op is checked where a workload runs it."""
        self.run_op(WARMUP, check=False, out_dir=self.out / "warmup")

    def run_pass(self, ops: tuple[Op, ...], tracer: Optional[Tracer] = None) -> list[OpResult]:
        return [self.run_op(op, tracer) for op in ops]
