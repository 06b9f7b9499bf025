"""Self-check of the benchmark's failure detection and self-time arithmetic.

    python3 perfbench/selfcheck.py     (from the checkout root)

Each of these must count as a failed op: a one-byte change to a pinned
output, a Q snapshot modified by the op, and an `error` cell in
`grid.csv`. Self time on a hand-built span tree must be exact. Prints
one line per check and exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import Bench, Op, compare  # noqa: E402
from run import import_cli  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def check_self_times() -> bool:
    # op [0, 10] > main [1, 9] > {prepare [2, 4] > forecast [2.5, 3], train [3.5, 8]
    # overlapping prepare, episode [8.5, 9.5] running past main's end}
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("cli.main", 1.0, 9.0, 0, 0),
        Span("cli.prepare", 2.0, 4.0, 1, 0),
        Span("forecasting.forecast", 2.5, 3.0, 2, 0),
        Span("agent.train", 3.5, 8.0, 1, 0),
        Span("agent.run_episode", 8.5, 9.5, 1, 0),
    ]
    return self_times(spans) == [2.0, 1.5, 1.5, 0.5, 4.5, 1.0]


def fresh_check(bench: Bench, op: Op) -> Op:
    """Re-check an executed op's files as they are now."""
    again = Op(op.index, op.dir, op.calls, op.inputs)
    bench.check(again)
    return again


def main() -> int:
    cli = import_cli(Path.cwd() / "src")
    reference = json.loads((HERE / "reference.json").read_text())
    results = {"self time on a hand-built span tree is exact": check_self_times()}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        work = Path(tmp)
        for name in ("daily", "grid"):
            (work / name).mkdir()
        daily = Bench(cli, "daily_ops", DEFAULT_SEED, work / "daily")
        expected = {0: reference["daily_ops"]["0"]}

        op = daily.execute(daily.op(0, daily.work / "ops"))
        compare([op], expected, "reference")
        results["an unchanged daily_ops op passes"] = not op.problems

        metrics = op.dir / "out" / "metrics.csv"
        data = bytearray(metrics.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        metrics.write_bytes(bytes(data))
        corrupted = fresh_check(daily, op)
        compare([corrupted], expected, "reference")
        results["a one-byte output change fails"] = bool(corrupted.problems)

        # The README's hazard: reconcile writing qtable.txt over its own snapshot.
        op = daily.op(1, daily.work / "ops")
        op.calls[-1] += ["--set", f"output_dir={op.dir}"]
        op = daily.execute(op)
        results["a modified snapshot fails"] = "input qtable.txt changed" in op.problems

        grid = Bench(cli, "grid_sweep", DEFAULT_SEED, work / "grid")
        from dtreconcile import evaluation
        train = evaluation.train

        def failing_train(history, cfg):
            if cfg.exploration == 0.2:
                raise ValueError("injected cell failure")
            return train(history, cfg)

        evaluation.train = failing_train
        try:
            op = grid.execute(grid.op(0, grid.work / "ops"))
        finally:
            evaluation.train = train
        results["an error grid cell fails"] = "grid.csv holds an error cell" in op.problems

    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
