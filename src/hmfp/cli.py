"""Command-line front end.

    hmfp <command> --config <path> [--input <snapshot>] [--sweep k=v1,v2,...]

Commands: steady, evolve, stability, rearrange, diag.  --input is read
once and shared by every run.  A sweep fans the run out over the listed
values of one config key, each variant isolated in its own directory,
named by the hash of its config, the command and the input's bytes;
the worker pool has one thread per CPU this process may run on, capped
by HMFP_THREADS, and the variants' result lines come
in the listed order.  Exit codes: 0 success, 1 a bad command line,
config or I/O trouble, a number out of range, or too little memory, 2
an iterative solve failed to converge, 3 the time integrator aborted.  A
steady state whose grid mass misses constraints.m1 by more than 1% exits
0 with a warning line on standard error.  Once per process, main keeps
freed heap memory in the process rather than returning it to the kernel
on every free (glibc only; see _hold_freed_heap).
"""

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import load_config
from .errors import ConfigError, ConvergenceError, SolverAbort
# _dispatch looks each run_<command> up by name among these globals
from .experiment import (COMMANDS, read_input, run_diag,  # noqa: F401
                         run_evolve, run_rearrange, run_stability, run_steady)

_EXIT_CONFIG = 1
_EXIT_NONCONVERGENCE = 2
_EXIT_ABORT = 3

# glibc malloc thresholds, held fixed so the field-sized temporaries of
# every step reuse heap pages instead of a fresh mmap each
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 128 << 20


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
    # the CPUs this process may run on, where the platform can tell
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    try:
        cap = int(raw) if raw else usable
    except ValueError:
        raise ConfigError("HMFP_THREADS must be an integer, got %r" % raw)
    return max(1, min(n_jobs, cap))


def _sweep_configs(cfg, sweep, command, snapshot):
    if sweep is None:
        return [cfg]
    key, sep, values = sweep.partition("=")
    if not sep or not values:
        raise ConfigError("--sweep wants key=v1,v2,..., got %r" % sweep)
    jobs = [cfg.with_value(key.strip(), v.strip()) for v in values.split(",")]
    # keyed as the runs are
    digest = None if snapshot is None else snapshot[2]
    dirs = [job.run_key(command, digest) for job in jobs]
    for d in dirs:
        if dirs.count(d) > 1:
            raise ConfigError("--sweep variants share run directory %s" % d)
    return jobs


def _dispatch(command, cfg, snapshot):
    """Run one job as run_<command>(cfg, snapshot), the read_input result;
    return its one-line summary and a warning line or None."""
    # looked up at call time, so a rebound run_<command> (a test's stand-in,
    # the benchmark tracer's wrapper) is the one that runs
    return globals()["run_" + command](cfg, snapshot)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line in one line."""

    def error(self, message):
        self.exit(_EXIT_CONFIG, "%s: error: %s\n" % (self.prog, message))


def _report(line, warning):
    if warning is not None:
        print(warning, file=sys.stderr)
    print(line)


def main(argv=None):
    _hold_freed_heap()
    parser = _Parser(
        prog="hmfp",
        description="Ground states, evolution, and stability experiments "
                    "for the mean-field kinetic model.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--input", default=None,
                        help="input snapshot path (not for steady)")
    parser.add_argument("--sweep", default=None,
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
        snapshot = read_input(args.input)
        jobs = _sweep_configs(cfg, args.sweep, args.command, snapshot)
        if len(jobs) == 1:
            _report(*_dispatch(args.command, jobs[0], snapshot))
        else:
            workers = _worker_count(len(jobs))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_dispatch, args.command, job, snapshot)
                           for job in jobs]
                # the workers only return their lines, so the output is
                # whole lines in the listed order
                for fut in futures:
                    _report(*fut.result())
    # ConfigError is a ValueError; so is a non-finite field that a
    # library check rejects, and a float overflow is an ArithmeticError
    except (ValueError, ArithmeticError, OSError) as exc:
        print("hmfp: %s" % exc, file=sys.stderr)
        return _EXIT_CONFIG
    except ConvergenceError as exc:
        print("hmfp: did not converge: %s" % exc, file=sys.stderr)
        return _EXIT_NONCONVERGENCE
    except SolverAbort as exc:
        print("hmfp: solver aborted: %s" % exc, file=sys.stderr)
        return _EXIT_ABORT
    except MemoryError as exc:
        print("hmfp: out of memory: %s" % exc, file=sys.stderr)
        return _EXIT_CONFIG
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
