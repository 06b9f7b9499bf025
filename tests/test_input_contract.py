"""The exit-code contract on mutated inputs, driven through `cli.main`.

Each property mutates one input of a working run: the OHLCV CSV, the
external forecast file or the Q snapshot. Whatever the mutation, the run
exits 0, 1 (config) or 2 (data) and never raises; an exit 2 names the
file, and the line when a row is at fault.
"""

import re
from datetime import date

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtreconcile.cli import main

from conftest import REFERENCE_FORECASTS, nifty_like_value, write_daily_csv

EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# Digits, separators, non-finite spellings, NUL, CR, non-ASCII text and
# a byte that is not UTF-8.
TOKENS = [bytes([c]) for c in b"0123456789,.-/ \n\x00\r"] + [
    b"nan", b"inf", b"1e400", "é".encode(), "٣".encode(), b"\xff"]
# Messages of a fault in one row; such a message must carry the line.
ROW_FAULTS = ("too few fields", "unparseable", "not finite", "duplicate",
              "expected day,action", "outside 1..")


@st.composite
def mutations(draw):
    """One to three edits, each an insertion, deletion or adjacent swap at
    a position given as a fraction of the file's length."""
    return draw(st.lists(st.tuples(st.sampled_from(("insert", "delete", "swap")),
                                   st.floats(0, 1), st.sampled_from(TOKENS)),
                         min_size=1, max_size=3))


def mutate(content: bytes, edits) -> bytes:
    for kind, where, token in edits:
        at = min(int(where * len(content)), max(len(content) - 1, 0))
        if kind == "insert":
            content = content[:at] + token + content[at:]
        elif kind == "delete":
            content = content[:at] + content[at + 1:]
        elif at + 1 < len(content):
            content = content[:at] + content[at + 1:at + 2] + content[at:at + 1] + content[at + 2:]
    return content


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A working data CSV, external forecast file and Q snapshot."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "daily.csv"
    write_daily_csv(data, date(2019, 1, 1), date(2020, 3, 31), nifty_like_value)
    forecast = root / "forecast.csv"
    forecast.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},{value}\n" for day, value in zip(range(1, 32), REFERENCE_FORECASTS)
    ) + "monthly_total,367706\n")
    argv = ["--set", "train_start=2019-01", "--set", "train_end=2020-02",
            "--set", "test_month=2020-03", "--set", "seed=7"]
    assert main(["run", *argv, "--set", f"data_path={data}",
                 "--set", f"output_dir={root / 'trained'}"]) == 0
    return {"data": data, "forecast": forecast, "snapshot": root / "trained" / "qtable.txt",
            "argv": argv}


def run_mutated(tmp_path, inputs, which, edits, capsys):
    """Run the verb that reads ``which`` with that input mutated; check the
    exit code and the message."""
    paths = {key: inputs[key] for key in ("data", "forecast", "snapshot")}
    mutated = tmp_path / f"mutated-{paths[which].name}"
    mutated.write_bytes(mutate(paths[which].read_bytes(), edits))
    paths[which] = mutated
    out = tmp_path / "out"
    argv = [*inputs["argv"], "--set", f"data_path={paths['data']}",
            "--set", f"output_dir={out}"]
    if which == "forecast":
        argv += ["--set", "forecaster=external",
                 "--set", f"external_forecast_path={paths['forecast']}"]
    verb = ["reconcile", "--qtable", str(paths["snapshot"])] if which == "snapshot" else ["run"]
    capsys.readouterr()
    code = main([*verb, *argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code == 2:
        assert str(mutated) in err, err
        if any(fault in err for fault in ROW_FAULTS):
            assert re.search(rf"{re.escape(str(mutated))}(: line |:)\d+", err), err
    return code


@EXAMPLES
@given(edits=mutations())
def test_mutated_data_csv_exits_0_1_or_2(tmp_path, inputs, capsys, edits):
    run_mutated(tmp_path, inputs, "data", edits, capsys)


@pytest.mark.filterwarnings("ignore:monthly total")  # a mutated day moves the daily sum
@EXAMPLES
@given(edits=mutations())
def test_mutated_external_forecast_exits_0_1_or_2(tmp_path, inputs, capsys, edits):
    run_mutated(tmp_path, inputs, "forecast", edits, capsys)


@EXAMPLES
@given(edits=mutations())
def test_mutated_snapshot_exits_0_1_or_2(tmp_path, inputs, capsys, edits):
    run_mutated(tmp_path, inputs, "snapshot", edits, capsys)


@pytest.mark.parametrize("which", ["data", "forecast", "snapshot"])
def test_undecodable_byte_exits_2_naming_file_and_line(tmp_path, inputs, capsys, which):
    # The byte lands in the first data row's date (or day) field.
    content = inputs[which].read_bytes()
    at = content.index(b"\n") + 2
    edits = [("insert", (at + 0.5) / len(content), b"\xff")]
    assert run_mutated(tmp_path, inputs, which, edits, capsys) == 2
