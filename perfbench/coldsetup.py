"""One cold set-up in a fresh interpreter: import the program, generate the
dataset, split it, build the job, look up the wire codec and construct the
runner.

    python3 -m perfbench.coldsetup <workload> <seed> <workdir>

Prints ``{"import_s": ..., "setup_s": ...}``; ``setup_s`` covers the
program's imports too, so work a change moves into import time shows in
the benchmark's ``setup_s``.  Interpreter start-up and the NumPy import
come before the clock starts: they are not the program's.
"""

import time

import numpy  # noqa: F401  (not the program's set-up)

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from perfbench import workloads  # noqa: E402  (imports the program)


def main(argv: list[str]) -> None:
    imported = time.perf_counter()
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    st = workloads.setup(workloads.WORKLOADS[name], seed, workdir)
    done = time.perf_counter()
    st.runner.close()
    print(json.dumps({"import_s": imported - _START,
                      "setup_s": done - _START}))


if __name__ == "__main__":
    main(sys.argv[1:])
