"""``scripts/abba.py`` summarises ABBA pairs of benchmark results, runs the
two sides in ABBA order outside the checkouts, and fails on a failed run;
checked on canned results, without running the benchmark."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "abba.py"


@pytest.fixture
def abba():
    return runpy.run_path(str(SCRIPT))


def result(latency, rss=100.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"latency_ms_p50": {"value": latency, "unit": "ms"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_canned_pairs(abba):
    pairs = [(result(100.0), result(80.0)), (result(110.0), result(90.0)),
             (result(90.0), result(95.0)), (result(120.0), result(85.0)),
             (result(100.0, rss=101.0), result(85.0))]
    rows = {r["metric"]: r for r in abba["summarize"](pairs)}
    lat = rows["latency_ms_p50"]
    assert lat["base"] == [100.0, 100.0, 110.0]
    assert lat["change"] == [85.0, 85.0, 90.0]
    assert lat["median_pct"] == pytest.approx(-15.0)
    assert (lat["lower"], lat["pairs"], lat["unit"]) == (4, 5, "ms")
    rss = rows["peak_rss_mb"]
    assert rss["median_pct"] == pytest.approx(0.0)
    assert rss["lower"] == 1  # an equal value is not lower
    text = abba["format_rows"](list(rows.values()))
    assert "-15.0%  in 4/5 pairs (ms)" in text


def test_a_pair_without_metrics_is_left_out(abba):
    lost = {"correct": False, "failed": None, "metrics": {}}
    rows = abba["summarize"]([(result(100.0), result(90.0)), (lost, result(1.0))])
    assert rows[0]["pairs"] == 1 and rows[0]["change"] == [90.0] * 3
    assert abba["summarize"]([(lost, lost)]) == []


@pytest.mark.parametrize("bad", [result(1.0, correct=False), result(1.0, failed=1),
                                 {"correct": False, "failed": None, "metrics": {}}])
def test_a_failed_run_fails(abba, bad):
    assert abba["ok"](result(1.0))
    assert not abba["ok"](bad)


def checkout(root):
    for name in ("src/eened", "perfbench/out"):
        (root / name).mkdir(parents=True)
    (root / "src/eened/__init__.py").write_text("")
    (root / "perfbench/run.py").write_text("")
    (root / "BENCHMARK.json").write_text("{}")
    return root


@pytest.mark.parametrize("failed", [0, 2])
def test_runs_alternate_outside_the_checkouts(abba, tmp_path, capsys, failed):
    base, change = checkout(tmp_path / "a"), checkout(tmp_path / "b")
    before = sorted(p for p in tmp_path.rglob("*"))
    calls = []

    def fake_run(copy, workload, seed, seconds):
        side = copy.name
        assert (copy / "src/eened/__init__.py").is_file()
        assert not (copy / "perfbench/out").exists()
        assert tmp_path not in copy.parents
        calls.append(side)
        return result(100.0 if side == "base" else 90.0,
                      failed=failed if len(calls) == 3 else 0)

    abba["main"].__globals__["run"] = fake_run
    status = abba["main"]([str(base), str(change), "--workload", "predict_full",
                           "--seed", "11", "--pairs", "3", "--seconds", "1"])
    assert calls == ["base", "change", "change", "base", "base", "change"]
    assert status == (1 if failed else 0)
    assert "in 3/3 pairs" in capsys.readouterr().out
    assert sorted(p for p in tmp_path.rglob("*")) == before
