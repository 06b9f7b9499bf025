"""The verbs' output bytes pinned by the benchmark's reference digests."""

import json
from pathlib import Path

from dtreconcile import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_first_benchmark_ops_match_the_reference_digests(tmp_path, monkeypatch):
    # Ops 0-2 of each workload at the default seed, run in process as
    # `perfbench/run.py` runs them; a changed output byte fails here, in
    # tier-1, and not only in a benchmark run. `daily_ops` runs ops 0-11,
    # one per test month of its rotation (2019-04..2020-03), so each month
    # ends `reconcile`'s filled days once, op 11 on the data's last day.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    from workloads import DEFAULT_SEED

    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for workload, n_ops in (("run_long", 3), ("grid_sweep", 3), ("daily_ops", 12)):
        work = tmp_path / workload
        work.mkdir()
        bench = ops.Bench(cli, workload, DEFAULT_SEED, work)
        done = [bench.execute(bench.op(index, work / "ops")) for index in range(n_ops)]
        ops.compare(done, {int(k): v for k, v in reference[workload].items()}, "reference")
        assert [(op.index, op.problems) for op in done] == [(i, []) for i in range(n_ops)], \
            workload
        assert all(op.digests for op in done), workload


def test_a_traced_op_counts_every_td_step(tmp_path, monkeypatch):
    # `perfbench/tracing.py` counts TD steps where it wraps the agent's
    # names: a verb that stops calling one through its module, or a renamed
    # one, changes the count or fails to install here, in tier-1.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    from tracing import Tracer
    from workloads import DEFAULT_SEED

    for workload in ("run_long", "grid_sweep", "daily_ops"):
        work = tmp_path / workload
        work.mkdir()
        bench = ops.Bench(cli, workload, DEFAULT_SEED, work)
        tracer = Tracer()
        tracer.install()
        try:
            op = bench.execute(bench.op(0, work / "ops"), tracer)
        finally:
            tracer.uninstall()
        assert op.problems == [], workload
        assert tracer.counts[0]["agent.td_steps"] == bench.workload.td_steps(0), workload
