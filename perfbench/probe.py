"""Set-up probe: what one fresh sclrom process pays before useful work.

Timed from its first statement: import numpy and ``sclrom.cli``, then one
tiny CLI pass (n=16, m=4) in the directory given as the only argument.
Prints the elapsed seconds; exits non-zero if a command fails.
"""
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401
from sclrom.cli import run_cli  # noqa: E402

from workloads import tiny_pass  # noqa: E402


def main(workdir: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [run_cli(cmd.argv) for cmd in tiny_pass(workdir, seed=0)]
    elapsed = time.perf_counter() - START
    if any(codes):
        print(f"probe: exit codes {codes}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
