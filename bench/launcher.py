"""Spawns the CLI children of ``cli-oneshot`` from a small process.

    python3 bench/launcher.py

Linux records the peak memory of the process that spawns a child as part
of the child's own peak when the child execs, so children spawned by the
benchmark worker, which holds the library, the inputs and the checks,
would all report the worker's peak.  This process holds none of that.

Requests arrive on stdin as JSON lines.  An argv list runs that command
and answers with a line ``<exit code> <stdout length>`` followed by the
stdout bytes; ``null`` answers with a line holding the peak resident
memory of the children so far, in KiB.  End of input ends the process.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def main() -> int:
    answer = sys.stdout.buffer
    for line in sys.stdin.buffer:
        argv = json.loads(line)
        if argv is None:
            answer.write(b"%d\n" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        else:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
            answer.write(b"%d %d\n" % (proc.returncode, len(proc.stdout)))
            answer.write(proc.stdout)
        answer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
