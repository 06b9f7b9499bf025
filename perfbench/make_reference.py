"""Record the pinned output digests for the default seed.

    python3 perfbench/make_reference.py     (from the checkout root)

Writes perfbench/reference.json: for each workload, the digests of the
pinned outputs of ops 0..N-1 at DEFAULT_SEED. N covers several times the
ops one run makes here. The benchmark fails every op whose outputs
differ, so record again only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import Bench  # noqa: E402
from run import import_cli  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

REFERENCE_OPS = {"run_long": 32, "grid_sweep": 48, "daily_ops": 400}


def main() -> int:
    cli = import_cli(Path.cwd() / "src")
    reference = {}
    for workload, count in REFERENCE_OPS.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
            bench = Bench(cli, workload, DEFAULT_SEED, Path(tmp))
            reference[workload] = {}
            for index in range(count):
                op = bench.execute(bench.op(index, bench.work / "ops"))
                bench.discard(op)
                if op.problems:
                    raise SystemExit(f"{workload} op {index}: {'; '.join(op.problems)}")
                reference[workload][index] = op.digests
        print(f"{workload}: {count} ops", file=sys.stderr)
    blocks = []
    for workload, ops in reference.items():
        rows = ",\n".join(f'  "{i}": {json.dumps(d, sort_keys=True)}' for i, d in ops.items())
        blocks.append(f' "{workload}": {{\n{rows}\n }}')
    (HERE / "reference.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
