"""Benchmark set-up, op execution and the per-op correctness checks.

An op fails when a `main` call returns non-zero or raises, when a
pinned output differs from its reference digest, when `grid.csv` holds
an `error` cell (`run_grid` swallows every exception), or when the op
changed its input CSV or Q snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SNAPSHOT_CONFIG, WORKLOADS, agent_seed, month_days, write_csv

ROOT_MARK = b"@OPS@"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digest(data: bytes, root: Path) -> str:
    """Digest of one output with the op root replaced by a fixed mark:
    `summary.json` embeds `data_path` and `output_dir`."""
    return hashlib.sha256(data.replace(str(root).encode(), ROOT_MARK)).hexdigest()[:16]


@dataclass
class Op:
    index: int
    dir: Path
    calls: list[list[str]]
    inputs: dict[str, str]          # file name in dir -> digest before the op
    seconds: float = 0.0
    kernel_s: float = 0.0           # reference-kernel time around the op
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    metrics_rows: int = 0


class Bench:
    """One workload's inputs in ``work``: the CSV, the config file and,
    for `daily_ops`, the Q snapshot. ``fresh=False`` reuses them."""

    def __init__(self, cli, workload: str, seed: int, work: Path, fresh: bool = True):
        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.csv = work / "data.csv"
        self.config = work / f"{workload}.cfg"
        self.snapshot = work / "snapshot.txt"
        if fresh:
            write_csv(self.csv, seed)
            config = {"data_path": str(self.csv), "output_dir": str(work / "out"),
                      "seed": str(seed), **self.workload.config}
            self.config.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            if self.workload.uses_snapshot:
                self._make_snapshot()

    def _make_snapshot(self) -> None:
        out = self.work / "snapshot_run"
        argv = ["run", "--config", str(self.config)] + _sets(
            {**SNAPSHOT_CONFIG, "output_dir": str(out)})
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"snapshot run exited with {rc}")
        shutil.copyfile(out / "qtable.txt", self.snapshot)

    def op(self, index: int, root: Path) -> Op:
        """Lay out op ``index`` under ``root`` with its own input copies."""
        d = root / f"op{index:05d}"
        d.mkdir(parents=True)
        shutil.copyfile(self.csv, d / "data.csv")
        overrides = {"data_path": str(d / "data.csv"), "output_dir": str(d / "out"),
                     "seed": str(agent_seed(self.seed, index)),
                     **self.workload.op_config(index)}
        tail = _sets(overrides)
        if self.workload.uses_snapshot:
            shutil.copyfile(self.snapshot, d / "qtable.txt")
        calls = []
        for verb in self.workload.verbs:
            argv = [verb, "--config", str(self.config)] + tail
            if verb == "reconcile":
                argv += ["--qtable", str(d / "qtable.txt")]
            calls.append(argv)
        inputs = {name: sha256(d / name) for name in ("data.csv", "qtable.txt")
                  if (d / name).exists()}
        return Op(index, d, calls, inputs)

    def execute(self, op: Op, tracer=None) -> Op:
        """Run the op's `main` calls as one timed unit, then check it."""
        span = tracer.span if tracer else lambda name, op=None: contextlib.nullcontext()
        t0 = time.perf_counter()
        with span("op", op.index), contextlib.redirect_stdout(io.StringIO()):
            for argv in op.calls:
                try:
                    with span("cli.main"):
                        rc = self.cli.main(argv)
                except (Exception, SystemExit) as exc:
                    traceback.print_exc(file=sys.stderr)
                    op.problems.append(f"{argv[0]} raised {exc!r}")
                    break
                if rc != 0:
                    op.problems.append(f"{argv[0]} exited with {rc}")
                    break
        op.seconds = time.perf_counter() - t0
        self.check(op)
        return op

    def check(self, op: Op) -> None:
        """Collect the op's output digests and its problems."""
        for name, digest in op.inputs.items():
            if sha256(op.dir / name) != digest:
                op.problems.append(f"input {name} changed")
        out = op.dir / "out"
        for name in self.workload.outputs:
            path = out / name
            if not path.is_file():
                op.problems.append(f"missing output {name}")
                continue
            data = path.read_bytes()
            op.digests[name] = output_digest(data, op.dir.parent)
            if name == "grid.csv" and b",error" in data:
                op.problems.append("grid.csv holds an error cell")
            if name == "metrics.csv":
                op.metrics_rows = data.count(b"\n") - 1
                test_month = self.workload.op_config(op.index).get(
                    "test_month", self.workload.config["test_month"])
                if op.metrics_rows != month_days(test_month):
                    op.problems.append(f"metrics.csv has {op.metrics_rows} rows")

    def discard(self, op: Op) -> None:
        shutil.rmtree(op.dir)


def _sets(mapping: dict[str, str]) -> list[str]:
    return [arg for k, v in mapping.items() for arg in ("--set", f"{k}={v}")]


def compare(ops: list[Op], expected: dict[int, dict[str, str]], source: str) -> None:
    """Mark ops whose digests differ from ``expected`` (index -> digests)."""
    for op in ops:
        want = expected.get(op.index)
        if want is not None and want != op.digests:
            bad = sorted(k for k in set(want) | set(op.digests)
                         if want.get(k) != op.digests.get(k))
            op.problems.append(f"{', '.join(bad)} differ from the {source}")
