"""Fresh-interpreter probes started by run.py; not meant to be run by hand.

    child.py setup <clock.txt> <config>...
                                 import hmfp.cli, parse the configs, then
                                 write the system-wide monotonic clock
    child.py pass <plan.json> <report.json>
                                 run one pass of hmfp commands, then write
                                 their exit codes and the peak resident set

Both refuse an hmfp that does not come from the checkout's src/, so a
copy installed elsewhere can never stand in for the code under test.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_cli():
    sys.path.insert(0, SRC)
    import hmfp.cli
    if not os.path.abspath(hmfp.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("hmfp imported from %s, not %s" % (hmfp.cli.__file__, SRC))
    return hmfp.cli


def _peak_rss_kb():
    """VmHWM of this process image, which starts at the exec.

    getrusage would also count the parent's resident set, inherited at the
    spawn, in the peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    mode, args = argv[0], argv[1:]
    cli = _import_cli()
    if mode == "setup":
        from hmfp.config import load_config
        for path in args[1:]:
            load_config(path)
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        with open(args[0], "w", encoding="utf-8") as fh:
            fh.write(repr(now))
        return 0
    if mode == "pass":
        with open(args[0], encoding="utf-8") as fh:
            commands = json.load(fh)
        codes = [cli.main(argv) for argv in commands]
        with open(args[1], "w", encoding="utf-8") as fh:
            json.dump({"codes": codes, "vm_hwm_kb": _peak_rss_kb()}, fh)
        return 0
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
