"""Time one cold set-up: import skewcodes and build a workload's program objects.

    python3 bench/setup_child.py WORKLOAD INPUTS_JSON

Prints ``[seconds, seconds at reference speed]`` as JSON; the calibration
loop runs just before and just after the set-up.  ``run.py`` starts one
fresh process per sample, so the import is cold apart from the interpreter's
start-up modules and the benchmark's own reference arithmetic.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402  (imports the reference arithmetic, not skewcodes)
import program  # noqa: E402  (stdlib imports only)

CALIBRATE_S = 0.05


def main(workload, inputs_path):
    inputs = json.loads(Path(inputs_path).read_text())
    before = calibrate.rate(CALIBRATE_S)
    t0 = time.perf_counter()
    program.build(program.load(), workload, inputs)
    dt = time.perf_counter() - t0
    print(json.dumps([dt, calibrate.scaled(dt, before, calibrate.rate(CALIBRATE_S))]))


if __name__ == "__main__":
    main(*sys.argv[1:])
