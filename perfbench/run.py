"""dtreconcile CLI benchmark: one closed-loop client calling
`dtreconcile.cli.main(argv)` in-process on seeded, generated inputs.

    python3 perfbench/run.py --workload run_long --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The line before it records the environment and the raw wall-time
medians. Problems go to stderr.

End-to-end timings are in reference seconds (see calibrate.py): each
op's wall time is scaled by the speed of a fixed kernel timed next to
it, so that the host's minute-to-minute drift cancels out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import calibrate, to_reference  # noqa: E402
from ops import Bench, compare  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 11   # fresh interpreters timed for setup_s, after one warm-up
REPLAY_EVERY = 8      # every eighth op is re-run in a fresh process and compared
CALIBRATE_EVERY_S = 0.5  # the kernel runs after the op that crosses this much time
CHILD_TIMEOUT_S = 120


def import_cli(src: Path):
    """Import `dtreconcile.cli` from ``src`` and nowhere else."""
    if not (src / "dtreconcile" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no dtreconcile sources under {src}")
    sys.path.insert(0, str(src))
    from dtreconcile import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: dtreconcile imported from {cli.__file__}, not {src}")
    return cli


def child(*args: str) -> str:
    out = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perfbench: child {args[0]} exited with {out.returncode}")
    return out.stdout.strip().splitlines()[-1]


def measure_setup(src: Path, config: Path) -> tuple[float, float]:
    """Median time from `import dtreconcile.cli` to a built RunConfig
    over fresh interpreter launches, the first discarded: in reference
    seconds, scaled by the median of the launches' kernel runs, and raw."""
    samples = [tuple(map(float, child("setup", str(src), str(config)).split()))
               for _ in range(SETUP_LAUNCHES + 1)][1:]
    setup = statistics.median(s for s, _ in samples)
    return to_reference(setup, statistics.median(k for _, k in samples)), setup


def run_ops(bench: Bench, seconds: float, tracer: Tracer | None):
    """Closed loop for ``seconds``. With a tracer, odd ops are traced and
    even ops are not, so both halves see the same conditions. The kernel
    runs before the first op and after the op that ends each
    CALIBRATE_EVERY_S; the ops in between get the mean of the two runs."""
    root = bench.work / "ops"
    ops, pending = [], []
    calibrate()  # warm-up
    kernel_s, calibrated_at = calibrate(), time.perf_counter()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < 2:
        op = bench.op(len(ops), root)
        traced = tracer is not None and op.index % 2 == 1
        if traced:
            tracer.install()
            try:
                bench.execute(op, tracer)
            finally:
                tracer.uninstall()
            if op.index in tracer.test_forecast:
                time_baselines(tracer, op.index)
        else:
            bench.execute(op)
        bench.discard(op)
        ops.append(op)
        pending.append(op)
        if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            kernel_s, calibrated_at = assign_kernel(pending, kernel_s), time.perf_counter()
    if pending:
        assign_kernel(pending, kernel_s)
    return ops


def assign_kernel(pending: list, before: float) -> float:
    """Give each pending op the mean of the kernel runs around it; empty
    ``pending`` and return the new run."""
    after = calibrate()
    for op in pending:
        op.kernel_s = (before + after) / 2
    pending.clear()
    return after


def time_baselines(tracer: Tracer, op: int) -> None:
    """Static reconciliation baselines on the op's test-month forecast,
    timed outside the op span: off the CLI pipeline today."""
    import numpy as np
    from dtreconcile import baselines, hierarchy

    daily = np.asarray(tracer.test_forecast[op], dtype=float)
    with tracer.span("baselines.reconcile", op):
        s = hierarchy.build_two_level(daily.size)
        y_hat = hierarchy.HierarchyVector(np.concatenate([[daily.sum()], daily]))
        for p in (baselines.p_bottom_up(s), baselines.p_top_down(daily / daily.sum(), s),
                  baselines.p_ols(s), baselines.p_wls(s, s.entries.sum(axis=1))):
            baselines.reconcile(s, p, y_hat)


def verify(bench: Bench, ops, src: Path, workload: str, seed: int) -> None:
    """Compare digests with the pinned reference (default seed) and with
    a replay of every REPLAY_EVERY-th op in a fresh interpreter."""
    if seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[workload]
        compare(ops, {int(k): v for k, v in reference.items()}, "reference")
    picked = [op.index for op in ops if op.index % REPLAY_EVERY == 0]
    replay = json.loads(child("replay", str(src), workload, str(seed), str(bench.work),
                              ",".join(map(str, picked))))
    compare(ops, {int(k): v for k, v in replay.items()}, "fresh-process replay")


def environment(workload: str, seed: int, ops, raw: dict) -> dict:
    import numpy as np
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"workload": workload, "seed": seed, "ops": len(ops),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    cli = import_cli(src)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        bench = Bench(cli, args.workload, args.seed, Path(tmp))
        tracer = Tracer() if args.trace else None
        setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(src, bench.config)
        ops = run_ops(bench, args.seconds, tracer)
        if tracer:
            traced = [op for op in ops if op.index % 2 == 1]
            for op in traced:
                if tracer.counts[op.index]["agent.td_steps"] != bench.workload.td_steps(op.index):
                    op.problems.append("traced TD steps differ from the inputs' count")
        verify(bench, ops, src, args.workload, args.seed)

    failed = [op for op in ops if op.problems]
    for op in failed[:10]:
        print(f"op {op.index}: {'; '.join(op.problems)}", file=sys.stderr)
    seconds = {op.index: to_reference(op.seconds, op.kernel_s) for op in ops}
    if tracer:
        values = tracer.layer_metrics([op.index for op in traced],
                                      {op.index: op.metrics_rows for op in traced},
                                      {op.index: to_reference(1.0, op.kernel_s) for op in traced})
        values["trace.overhead_ratio"] = (
            statistics.median(seconds[op.index] for op in traced)
            / statistics.median(seconds[op.index] for op in ops if op.index % 2 == 0))
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(seconds.values()),
            "sarsa_steps_per_s":
                sum(bench.workload.td_steps(op.index) for op in ops) / sum(seconds.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if units.keys() != values.keys():
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    raw = {"kernel_p50_s": statistics.median(op.kernel_s for op in ops),
           "op_p50_wall_s": statistics.median(op.seconds for op in ops)}
    if setup_wall_s is not None:
        raw["setup_wall_s"] = setup_wall_s
    print(json.dumps({"env": environment(args.workload, args.seed, ops, raw)}))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
