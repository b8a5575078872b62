"""Command-line front end.

    hmfp <command> --config <path> [--input <snapshot>] [--sweep k=v1,v2,...]

Commands: steady, evolve, stability, rearrange, diag.  A sweep fans the
run out over the listed values of one config key, each variant fully
isolated in its own directory, named by the hash of its config, the
command and the input snapshot; HMFP_THREADS caps the worker
pool, and the variants' result lines come in the listed order.  Exit
codes: 0 success, 1 config or I/O trouble, 2 an iterative solve failed to
converge, 3 the time integrator aborted.  A steady state whose grid mass
misses constraints.m1 by more than 1% exits 0 with a warning line on
standard error.  Once per process, main keeps freed heap memory in the
process rather than returning it to the kernel on every free (glibc
only; see _hold_freed_heap).
"""

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import load_config
from .errors import ConfigError, ConvergenceError, SolverAbort
from .experiment import (input_digest, run_diag, run_evolve, run_rearrange,
                         run_stability, run_steady)
from .functionals import mass

_EXIT_CONFIG = 1
_EXIT_NONCONVERGENCE = 2
_EXIT_ABORT = 3

# glibc malloc thresholds, held fixed so the field-sized temporaries of
# every step reuse heap pages instead of a fresh mmap each
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 128 << 20

# Relative miss of a steady state's grid mass against constraints.m1 above
# which the CLI warns.  The multipliers meet the constraint over the whole
# velocity line, so a coarse or narrow velocity grid loses mass: a flat
# power:2 state at m1 = 3 and v_max = 6 misses by 0.11 at 16^2 and by
# 3.5e-3 at 64^2.
_MASS_MISS_WARN = 1e-2


@functools.cache
def _hold_freed_heap():
    """Keep freed blocks below 64 MiB on this process's heap.

    glibc serves each block above M_MMAP_THRESHOLD (128 KiB at start) with
    its own mmap and raises the threshold only after a larger mapped block
    is freed; it returns the heap top to the kernel above M_TRIM_THRESHOLD.
    Left alone, glibc maps, faults in and unmaps many of the field-sized
    temporaries (2 MiB at 512^2) of every command: the steady solves'
    profiles, the v advection's gathers, the measurements at each evolve
    record.  Where libc has no mallopt (macOS, Windows) this does nothing,
    and musl's mallopt ignores both settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def _worker_count(n_jobs):
    raw = os.environ.get("HMFP_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError("HMFP_THREADS must be an integer, got %r" % raw)
    return max(1, min(n_jobs, cap))


def _sweep_configs(cfg, sweep, command, input_path):
    if sweep is None:
        return [cfg]
    key, sep, values = sweep.partition("=")
    if not sep or not values:
        raise ConfigError("--sweep wants key=v1,v2,..., got %r" % sweep)
    jobs = [cfg.with_value(key.strip(), v.strip()) for v in values.split(",")]
    # keyed as the runs are
    digest = input_digest(input_path)
    dirs = [job.run_key(command, digest) for job in jobs]
    for d in dirs:
        if dirs.count(d) > 1:
            raise ConfigError("--sweep variants share run directory %s" % d)
    return jobs


def _mass_miss_warning(out, cfg, field):
    """The warning line for a steady state whose grid mass misses
    constraints.m1 by more than _MASS_MISS_WARN of it, else None."""
    grid_mass = mass(field)
    if abs(grid_mass - cfg.m1) <= _MASS_MISS_WARN * cfg.m1:
        return None
    return ("hmfp: warning: %s: grid mass %.6g misses constraints.m1 = %.6g; "
            "try a finer grid.n_v or a different grid.v_max"
            % (out, grid_mass, cfg.m1))


def _dispatch(command, cfg, input_path):
    """Run one job and return its one-line summary and a warning line or None."""
    if command == "steady":
        out, result = run_steady(cfg)
        return ("%s: lambda = %.10g, residual = %.3e, %d iterations"
                % (out, result.multipliers.lam, result.fixed_point_residual,
                   result.iterations)), _mass_miss_warning(out, cfg, result.field)
    if command == "evolve":
        out, result = run_evolve(cfg, input_path)
        return ("%s: %d steps to t = %.6g, boundary loss %.3e"
                % (out, result.steps, result.time, result.boundary_loss)), None
    if command == "stability":
        out, sup = run_stability(cfg, input_path)
        return "%s: sup orbital distance = %.10g" % (out, sup), None
    if command == "rearrange":
        out, banded = run_rearrange(cfg, input_path)
        return "%s: banded equimeasurability defect = %.10g" % (out, banded), None
    if command == "diag":
        out, rec = run_diag(cfg, input_path)
        return "%s: %s" % (out, rec.to_csv()), None
    raise ConfigError("unknown command %r" % command)


def _report(line, warning):
    if warning is not None:
        print(warning, file=sys.stderr)
    print(line)


def main(argv=None):
    _hold_freed_heap()
    parser = argparse.ArgumentParser(
        prog="hmfp",
        description="Ground states, evolution, and stability experiments "
                    "for the mean-field kinetic model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "evolve", "stability", "rearrange", "diag"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--input", default=None,
                       help="input snapshot path (not for steady)")
        p.add_argument("--sweep", default=None,
                       help="fan out over key=v1,v2,... config variants")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else _EXIT_CONFIG
        return 0 if code == 0 else _EXIT_CONFIG

    try:
        if args.command == "steady" and args.input is not None:
            raise ConfigError("steady reads no input snapshot, got --input %s"
                              % args.input)
        cfg = load_config(args.config)
        jobs = _sweep_configs(cfg, args.sweep, args.command, args.input)
        if len(jobs) == 1:
            _report(*_dispatch(args.command, jobs[0], args.input))
        else:
            workers = _worker_count(len(jobs))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_dispatch, args.command, job, args.input)
                           for job in jobs]
                # the workers only return their lines, so the output is
                # whole lines in the listed order
                for fut in futures:
                    _report(*fut.result())
    except ConfigError as exc:
        print("hmfp: %s" % exc, file=sys.stderr)
        return _EXIT_CONFIG
    except ConvergenceError as exc:
        print("hmfp: did not converge: %s" % exc, file=sys.stderr)
        return _EXIT_NONCONVERGENCE
    except SolverAbort as exc:
        print("hmfp: solver aborted: %s" % exc, file=sys.stderr)
        return _EXIT_ABORT
    except OSError as exc:
        print("hmfp: %s" % exc, file=sys.stderr)
        return _EXIT_CONFIG
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
