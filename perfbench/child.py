"""Fresh-interpreter helpers for perfbench/run.py.

    child.py setup <src> <config>
        print the seconds from `import dtreconcile.cli` to a built RunConfig,
        then the seconds of one reference-kernel run made just after it
    child.py replay <src> <workload> <seed> <work> <i,j,...>
        re-run the listed ops on the inputs in <work>; print their digests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(src: str, config: str) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    from dtreconcile import cli
    cli.build_run_config(cli.parse_config_file(config))
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"dtreconcile imported from {cli.__file__}, not {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import calibrate
    calibrate()  # warm-up
    print(repr(elapsed), repr(calibrate()))


def replay(src: str, workload: str, seed: str, work: str, indices: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import import_cli
    from ops import Bench

    bench = Bench(import_cli(Path(src)), workload, int(seed), Path(work), fresh=False)
    digests = {}
    for index in map(int, filter(None, indices.split(","))):
        op = bench.execute(bench.op(index, bench.work / "replay"))
        bench.discard(op)
        digests[index] = op.digests
        for problem in op.problems:
            print(f"replay of op {index}: {problem}", file=sys.stderr)
    print(json.dumps(digests))


if __name__ == "__main__":
    {"setup": setup, "replay": replay}[sys.argv[1]](*sys.argv[2:])
