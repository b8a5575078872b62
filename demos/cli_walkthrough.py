"""
Drive every hmfp subcommand end to end inside a scratch directory.

Builds a ground state, evolves it, runs the stability experiment, then
rearranges and inspects the final snapshot.  Each run lands in its own
hash-named directory under runs/, so the walkthrough doubles as a tour of
the on-disk artifact layout.
"""

import math
import os
import tempfile

from hmfp.cli import main


def write(name, text):
    with open(name, "w") as fh:
        fh.write(text)
    return name


def run(argv):
    print("$ hmfp " + " ".join(argv))
    code = main(argv)
    print("  -> exit %d\n" % code)
    assert code == 0


def walkthrough():
    steady_cfg = write("steady.cfg", """
grid.n_theta = 64
grid.n_v = 64
casimir = entropy
constraints.m1 = %.17g
seed.amplitude = 0.5
solver.tol = 1e-10
""" % (4 * math.pi))
    run(["steady", "--config", steady_cfg])

    run_dir = [os.path.join("runs", d) for d in sorted(os.listdir("runs"))][0]
    state = os.path.join(run_dir, "state.snap")
    print("ground state artifacts: %s\n" % sorted(os.listdir(run_dir)))

    evolve_cfg = write("evolve.cfg", """
solver.dt = 0.05
solver.t_end = 2.0
solver.interpolation = cubic
solver.record_every = 10
""")
    run(["evolve", "--config", evolve_cfg, "--input", state])

    stability_cfg = write("stability.cfg", """
grid.n_theta = 64
grid.n_v = 64
constraints.m1 = %.17g
perturbation.kind = density_bump
perturbation.amplitude = 1e-3
solver.dt = 0.05
solver.t_end = 2.0
solver.record_every = 10
""" % math.pi)
    run(["stability", "--config", stability_cfg])

    rearrange_cfg = write("rearrange.cfg", "rearrange.phi = self\n")
    run(["rearrange", "--config", rearrange_cfg, "--input", state])

    diag_cfg = write("diag.cfg", "casimir = entropy\n")
    run(["diag", "--config", diag_cfg, "--input", state])

    print("a parameter sweep, one directory per variant:")
    run(["stability", "--config", stability_cfg,
         "--sweep", "perturbation.amplitude=1e-3,2e-3"])

    print("all run directories:")
    for d in sorted(os.listdir("runs")):
        print("  runs/%s: %s" % (d, sorted(os.listdir(os.path.join("runs", d)))))


# the run directories live in a temporary folder that is removed at the end;
# step back out of it first so it is not the working directory when it goes
home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="hmfp_demo_") as scratch:
    os.chdir(scratch)
    print("working in %s\n" % scratch)
    try:
        walkthrough()
    finally:
        os.chdir(home)
