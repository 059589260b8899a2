"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import os
import time

import pytest

import run
from spans import Recorder, covered, self_times, summarize, tail_percentile


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 5), (3, 7), (9, 10)]) == 7
    assert covered([(1, 5), (3, 7)], lo=2, hi=6) == 4
    assert covered([(0, 1)], lo=2, hi=3) == 0
    assert covered([]) == 0


def test_self_time_of_nested_spans_sums_to_root():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["a.inner", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 5.0, 0],
             ["b", 3.0, 7.0, 0],
             ["c", 9.0, 12.0, 0]]  # runs past its parent: clipped
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_summarize_takes_union_of_recursive_spans():
    spans = [["root", 0.0, 10.0, -1],
             ["f", 1.0, 9.0, 0],
             ["f", 2.0, 4.0, 1]]
    layers = summarize(spans)
    assert layers["f"]["calls"] == 2
    assert layers["f"]["s"] == 8.0
    assert layers["f"]["self_s"] == 8.0
    assert layers["root"]["self_s"] == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(20)) == (50.0, 9)       # rank 10, 10 beyond
    assert tail_percentile(range(19)) is None            # rank 10, 9 beyond
    assert tail_percentile(range(43)) == (75.0, 32)      # rank 33, 10 beyond
    assert tail_percentile(range(1000)) == (99.0, 989)   # p99.9 has 1 beyond
    assert tail_percentile(range(10000)) == (99.9, 9989)
    assert tail_percentile([]) is None


def test_recorder_spans_nest_and_count():
    rec = Recorder()

    def leaf(x):
        time.sleep(0.001)
        return x

    leaf_w = rec.wrap("leaf", leaf, after=lambda r, a, res: r.count("n", res))

    def outer():
        return leaf_w(2) + leaf_w(3)

    outer_w = rec.wrap("outer", outer)
    assert outer_w() == 5
    assert [s[0] for s in rec.spans] == ["outer", "leaf", "leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert rec.counters == {"n": 5}
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == pytest.approx(root[2] - root[1])


def test_recorder_closes_span_on_exception():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.spans[0][2] is not None
    assert rec._open == [-1]


def test_trimmed_mean_drops_each_tail():
    assert run.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert run.trimmed_mean(list(range(10))) == 4.5
    assert run.trimmed_mean([2.0]) == 2.0


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_enumerate_check_fails_on_wrong_count(tmp_path):
    pin = run.WORKLOADS["enum-c16"].pin
    _write_lines(tmp_path / "out.cat", [dict(pin, format="srings-catalog")])
    assert run.check_enumerate(0, tmp_path, pin).failed == 0
    assert run.check_enumerate(3, tmp_path, pin).failed == 1
    _write_lines(tmp_path / "out.cat", [dict(pin, raw_total=12536)])
    assert run.check_enumerate(0, tmp_path, pin).failed == 1
    _write_lines(tmp_path / "out.cat", [dict(pin, count=42)])
    assert run.check_enumerate(0, tmp_path, pin).failed == 1
    os.remove(tmp_path / "out.cat")
    assert run.check_enumerate(0, tmp_path, pin).failed == 1


def test_classify_check_fails_on_wrong_row(tmp_path):
    pin = run.WORKLOADS["classify-p3"].pin
    rows = [{"rank": r, "decomposable": d, "thin_radical_order": t,
             "raw_count": c} for r, d, t, c in pin["rows"]]
    header = {"classes": 6, "raw_total": 443}
    _write_lines(tmp_path / "rows.txt", [header] + rows)
    assert run.check_classify(0, tmp_path, pin).failed == 0
    rows[4] = dict(rows[4], raw_count=51)
    _write_lines(tmp_path / "rows.txt", [header] + rows)
    assert run.check_classify(0, tmp_path, pin).failed == 1


def test_ci_check_counts_wrong_verdicts(tmp_path):
    pin = {"verdicts": ["CI"] * 4}
    records = [{"entry": i, "verdict": "CI", "method": "fastpath-thin"}
               for i in range(4)]
    _write_lines(tmp_path / "ci.txt", [{"command": "ci"}] + records)
    good = run.check_ci(0, tmp_path, pin)
    assert (good.attempted, good.failed, good.items) == (4, 0, 4)
    assert good.methods == {"fastpath-thin": 4}
    records[1] = dict(records[1], verdict="Undecided", method="new-method")
    records[2] = dict(records[2], verdict="NotCI")
    _write_lines(tmp_path / "ci.txt", [{"command": "ci"}] + records)
    bad = run.check_ci(3, tmp_path, pin)
    assert bad.failed == 4
    bad = run.check_ci(0, tmp_path, pin)
    assert (bad.failed, bad.items) == (2, 2)
    assert bad.failed / bad.attempted > 0
    assert bad.methods == {"fastpath-thin": 3, "other": 1}
    _write_lines(tmp_path / "ci.txt", [{"command": "ci"}] + records[:3])
    assert run.check_ci(0, tmp_path, pin).failed == 4


def test_benchmark_json_names_every_reported_metric():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        assert run.WORKLOADS[w["name"]].why == w["why"]
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        set(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_traced_command_self_times_sum_to_wall(tmp_path):
    """Trace a small CI command through child.py, as a traced run does."""
    run.run_child(str(tmp_path), "2^3", "run",
                  ("enumerate", "--group", "2^3", "--out", "c8.cat"))
    for method, inner in (("auto", "ci.decider"), ("regular", "ci.is_ci")):
        result = run.run_child(str(tmp_path), "2^3", "trace",
                               ("ci", "--catalog", "c8.cat", "--method",
                                method, "--out", "ci.txt"))
        outcome = run.check_ci(result["rc"], str(tmp_path),
                               {"verdicts": ["CI"] * 9})
        assert outcome.failed == 0
        values, consistent = run.layer_metrics(result, outcome, 0.0)
        assert consistent
        assert values["trace.self_sum_s"] == \
            pytest.approx(values["trace.wall_s"])
        assert values["trace.overhead_s"] == result["wall_s"]
        layers = summarize(result["spans"])
        assert layers["ci.entry"]["calls"] == 9
        assert layers[inner]["calls"] >= 9
        assert layers["catalog.load_catalog"]["calls"] == 1
        assert values["catalog.canonical_partition.calls"] == 9
