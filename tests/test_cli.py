import hashlib
import json
import shutil
from pathlib import Path

import pytest

from srings import catalog as catalog_module
from srings import cli, groups
from srings.cli import main
from srings.errors import CatalogFormatError, EnumerationMismatch
from srings.catalog import load_catalog


def test_enumerate_and_ci_flow(tmp_path, capsys):
    cat = tmp_path / "c8.cat"
    assert main(["enumerate", "--group", "2^3", "--filter", "all",
                 "--out", str(cat)]) == 0
    catalog = load_catalog(cat)
    assert len(catalog.entries) == 9
    report = tmp_path / "ci.txt"
    assert main(["ci", "--catalog", str(cat), "--method", "bruteforce",
                 "--out", str(report), "--update-catalog"]) == 0
    lines = report.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["undecided"] == 0
    records = [json.loads(line) for line in lines[1:]]
    assert all(r["verdict"] == "CI" for r in records)
    updated = load_catalog(cat)
    assert all(e.ci and e.ci["verdict"] == "CI" for e in updated.entries)


def test_enumerate_p_filter(tmp_path):
    cat = tmp_path / "c27p.cat"
    assert main(["enumerate", "--group", "3^3", "--filter", "p-srings",
                 "--out", str(cat), "--no-labels"]) == 0
    assert len(load_catalog(cat).entries) == 6


def test_usage_errors(tmp_path):
    assert main(["enumerate", "--group", "nope", "--out",
                 str(tmp_path / "x.cat")]) == 2
    assert main(["classify", "--p", "2"]) == 2
    assert main(["classify", "--p", "9"]) == 2
    assert main(["ci", "--catalog", str(tmp_path / "missing.cat")]) == 2


@pytest.mark.parametrize("argv", [
    ["enumerate", "--group", "2^3", "--max-order", "-5"],
    ["enumerate", "--group", "2^3", "--max-order", "0"],
    ["enumerate", "--group", "2^3", "--max-order", "x"],
    ["criterion", "--group", "2^3", "--max-order", "0"],
    ["ci", "--catalog", "c8.cat", "--workers", "0"],
    ["ci", "--catalog", "c8.cat", "--workers", "-2"],
])
def test_order_and_worker_counts_below_one_are_usage_errors(
        tmp_path, monkeypatch, capsys, argv):
    # before they were parsed as integers >= 1, a negative --max-order
    # ran and exited 3 on its bound, and --max-order 0 and --workers <= 0
    # were ignored
    monkeypatch.chdir(tmp_path)
    assert main(["enumerate", "--group", "2^3", "--out", "c8.cat",
                 "--no-labels"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "out.txt"]) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_a_group_above_max_order_is_undecided(tmp_path, capsys):
    out = tmp_path / "c16.cat"
    assert main(["enumerate", "--group", "2^4", "--max-order", "8",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "undecided: group order: bound 8 exceeded (needed 16)\n"
    assert not out.exists()


def test_a_group_at_max_order_runs_as_by_default(tmp_path):
    bounded, default = tmp_path / "bounded.txt", tmp_path / "default.txt"
    assert main(["criterion", "--group", "2^3", "--max-order", "8",
                 "--out", str(bounded)]) == 0
    assert main(["criterion", "--group", "2^3", "--out", str(default)]) == 0
    assert bounded.read_bytes() == default.read_bytes()


def test_classify_p3(tmp_path):
    out = tmp_path / "rows.txt"
    assert main(["classify", "--p", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["classes"] == 6
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["decomposable"] for r in rows] == [False, True, True, True,
                                                 True, False]


def test_classify_above_the_degree_limit_is_a_usage_error(tmp_path,
                                                          capsys):
    # 7^3 has 343 points; Aut(G) cannot be built as a permutation group
    assert main(["classify", "--p", "7", "--out",
                 str(tmp_path / "rows.txt")]) == 2
    assert "above 256" in capsys.readouterr().err
    assert not (tmp_path / "rows.txt").exists()


def test_criterion_c8(tmp_path):
    out = tmp_path / "crit.txt"
    assert main(["criterion", "--group", "2^3", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["soundness_violations"] == 0
    assert header["criterion_every_section"] is True
    assert header["criterion_some_section"] is True


def test_notci_verdicts_reach_the_reports(tmp_path, holomorph_k_over_c8):
    """With K the holomorph for the rings over 2^3: ci --method regular
    writes a NotCI record with a two-class certificate for each of the 9
    classes, and criterion counts every one of the 14 sections where the
    condition holds with CI factors as a soundness violation."""
    cat = tmp_path / "c8.cat"
    assert main(["enumerate", "--group", "2^3", "--out", str(cat),
                 "--no-labels"]) == 0
    report = tmp_path / "ci.txt"
    assert main(["ci", "--catalog", str(cat), "--method", "regular",
                 "--out", str(report)]) == 0
    records = [json.loads(line)
               for line in report.read_text().splitlines()[1:]]
    assert len(records) == 9
    assert all(r["verdict"] == "NotCI" and len(r["certificate"]) == 2
               for r in records)
    out = tmp_path / "crit.txt"
    assert main(["criterion", "--group", "2^3", "--out", str(out)]) == 4
    header = json.loads(out.read_text().splitlines()[0])
    assert header["soundness_violations"] == 14
    assert header["criterion_every_section"] is False
    assert header["criterion_some_section"] is False


def test_reports_are_reproducible(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["criterion", "--group", "2^3", "--out", str(out1)]) == 0
    assert main(["criterion", "--group", "2^3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


@pytest.mark.parametrize("method", ["regular", "auto"])
def test_ci_workers(tmp_path, method):
    cat = tmp_path / "c8.cat"
    main(["enumerate", "--group", "2^3", "--filter", "all", "--out",
          str(cat), "--no-labels"])
    seq = tmp_path / "seq.txt"
    par = tmp_path / "par.txt"
    assert main(["ci", "--catalog", str(cat), "--method", method,
                 "--out", str(seq)]) == 0
    assert main(["ci", "--catalog", str(cat), "--method", method,
                 "--out", str(par), "--workers", "2"]) == 0
    strip = lambda p: [json.loads(l) for l in p.read_text().splitlines()[1:]]
    assert strip(seq) == strip(par)


def test_ci_workers_give_the_report_of_one_process(tmp_path):
    # each worker process shares its own decider across its entries
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"ci{workers}.txt"
        assert main(["ci", "--catalog", str(PERFBENCH_DATA / "c16.cat"),
                     "--out", str(out), "--workers", workers]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_ci_searches_each_ring_once_per_command(tmp_path, monkeypatch):
    """One decider serves every entry of a ci command: each distinct ring,
    entry or wreath factor, is searched at most once, and each entry is
    still one decide_ci call.  The decider is gone when the command ends."""
    from srings import ci

    searched, decided = [], []
    real_is_ci, real_decide = ci.is_ci, cli.decide_ci

    def is_ci_spy(a, bounds):
        searched.append((a.spec.factors, a.cells))
        return real_is_ci(a, bounds)

    def decide_spy(ring, bounds):
        decided.append(ring.cells)
        return real_decide(ring, bounds)

    monkeypatch.setattr(ci, "is_ci", is_ci_spy)
    monkeypatch.setattr(cli, "decide_ci", decide_spy)
    catalog = PERFBENCH_DATA / "c16.cat"
    assert main(["ci", "--catalog", str(catalog),
                 "--out", str(tmp_path / "ci.txt")]) == 0
    assert decided == [e.cells for e in load_catalog(catalog).entries]
    # 50 searches of these 22 rings with a decider per entry
    assert len(searched) == len(set(searched)) == 22
    assert cli._decider is None


def test_time_limit_marks_undecided(tmp_path):
    cat = tmp_path / "c8.cat"
    main(["enumerate", "--group", "2^3", "--filter", "all", "--out",
          str(cat), "--no-labels"])
    out = tmp_path / "t.txt"
    code = main(["ci", "--catalog", str(cat), "--method", "regular",
                 "--out", str(out), "--time-limit", "0.0000001"])
    assert code == 3
    records = [json.loads(l) for l in out.read_text().splitlines()[1:]]
    assert any(r["verdict"] == "Undecided" for r in records)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_time_limit_zero_decides_nothing(tmp_path, workers):
    cat = tmp_path / "c8.cat"
    main(["enumerate", "--group", "2^3", "--filter", "all", "--out",
          str(cat), "--no-labels"])
    out = tmp_path / "t.txt"
    code = main(["ci", "--catalog", str(cat), "--method", "regular",
                 "--out", str(out), "--time-limit", "0",
                 "--workers", workers])
    assert code == 3
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["undecided"] == 9
    records = [json.loads(l) for l in lines[1:]]
    assert all(r["verdict"] == "Undecided" for r in records)


def test_enumeration_mismatch_exits_4(tmp_path, monkeypatch):
    def mismatch(*_args, **_kwargs):
        raise EnumerationMismatch("class 00: 1 raw rings counted, "
                                  "its Aut(G) orbit has 2")

    monkeypatch.setattr(cli, "enumerate_srings", mismatch)
    cat = tmp_path / "c8.cat"
    assert main(["enumerate", "--group", "2^3", "--out", str(cat)]) == 4
    assert not cat.exists()


def test_ci_auto_builds_each_group_once(tmp_path, monkeypatch):
    """`ci --method auto` over the 2^4 catalog of perfbench builds one
    GroupSpec per group it meets (2^4 and the quotients 2^3, 2^2, 2 and
    1), starting from no specs, not one per section and entry."""
    built = []
    real = groups.GroupSpec.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.factors)

    monkeypatch.setattr(groups.GroupSpec, "__init__", spy)
    monkeypatch.setattr(groups, "_specs", {}, raising=False)
    cat = tmp_path / "c16.cat"
    shutil.copy(Path(__file__).resolve().parent.parent / "perfbench" /
                "data" / "c16.cat", cat)
    assert main(["ci", "--catalog", str(cat), "--method", "auto",
                 "--out", str(tmp_path / "ci.txt"), "--workers", "1"]) == 0
    assert len(built) == len(set(built)) <= 5


def _c8_catalog(tmp_path):
    cat = tmp_path / "c8.cat"
    assert main(["enumerate", "--group", "2^3", "--out", str(cat),
                 "--no-labels"]) == 0
    return cat


def _without_group(text):
    header, *rest = text.splitlines()
    header = json.loads(header)
    del header["group"]
    return "\n".join([json.dumps(header)] + rest) + "\n"


def _wrong_format(text):
    header, rest = text.split("\n", 1)
    header = json.loads(header)
    header["format"] = "srings-report"
    return json.dumps(header) + "\n" + rest


@pytest.mark.parametrize("damage, message", [
    (lambda text: "not json\n" + text.split("\n", 1)[1], "not JSON"),
    (_without_group, "field 'group'"),
    (lambda text: "[1, 2]\n" + text.split("\n", 1)[1], "not a JSON object"),
    (lambda text: "", "empty catalog file"),
    (_wrong_format, "not a catalog file"),
], ids=["header-not-json", "header-without-group", "header-not-an-object",
        "empty-file", "wrong-format"])
def test_ci_on_a_malformed_catalog_is_a_usage_error(tmp_path, capsys,
                                                    damage, message):
    # the first two ended in a traceback (JSONDecodeError, KeyError) with
    # exit 1
    cat = _c8_catalog(tmp_path)
    cat.write_text(damage(cat.read_text()))
    capsys.readouterr()
    assert main(["ci", "--catalog", str(cat)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _drop_rank(header, entries):
    del entries[1]["rank"]


def _flat_cells(header, entries):
    entries[1]["cells"] = [1, 2]


def _text_in_cells(header, entries):
    entries[1]["cells"][1] = ["x"]


def _numeric_group(header, entries):
    header["group"] = 12


def _text_raw_count(header, entries):
    entries[1]["raw_count"] = "many"


def _bool_raw_count(header, entries):
    entries[1]["raw_count"] = True


def _null_raw_count(header, entries):
    entries[1]["raw_count"] = None


def _bool_rank(header, entries):
    entries[1]["rank"] = True


def _numeric_construction(header, entries):
    entries[1]["construction"] = 7


def _list_ci(header, entries):
    entries[1]["ci"] = [1]


def _text_raw_total(header, entries):
    header["raw_total"] = "lots"


def _wrong_rank(header, entries):
    entries[1]["rank"] += 1


@pytest.mark.parametrize("damage, field", [
    (_drop_rank, "rank"), (_flat_cells, "cells"), (_text_in_cells, "cells"),
    (_numeric_group, "group"), (_text_raw_count, "raw_count"),
    (_bool_raw_count, "raw_count"), (_null_raw_count, "raw_count"),
    (_bool_rank, "rank"), (_numeric_construction, "construction"),
    (_list_ci, "ci"), (_text_raw_total, "raw_total"), (_wrong_rank, "rank"),
], ids=["entry-without-rank", "flat-cells", "text-in-cells", "numeric-group",
        "text-raw-count", "bool-raw-count", "null-raw-count", "bool-rank",
        "numeric-construction", "list-ci", "text-raw-total", "wrong-rank"])
def test_a_signed_catalog_with_a_bad_field_is_a_format_error(
        tmp_path, capsys, damage, field):
    # with the digest re-signed, the first four ended in a traceback
    # (KeyError, TypeError, TypeError, AttributeError) with exit 1, and
    # the rest loaded, and ci --update-catalog wrote the values back
    cat = _c8_catalog(tmp_path)
    header, *lines = cat.read_text().splitlines()
    header, entries = json.loads(header), [json.loads(x) for x in lines]
    damage(header, entries)
    lines = [json.dumps(e, sort_keys=True, separators=(",", ":"))
             for e in entries]
    header["digest"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    cat.write_text("\n".join([json.dumps(header)] + lines) + "\n")
    with pytest.raises(CatalogFormatError, match=repr(field)):
        load_catalog(cat)
    capsys.readouterr()
    assert main(["ci", "--catalog", str(cat)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err


def test_ci_report_into_a_missing_directory_is_a_usage_error(tmp_path,
                                                             capsys):
    cat = _c8_catalog(tmp_path)
    capsys.readouterr()
    assert main(["ci", "--catalog", str(cat), "--method", "bruteforce",
                 "--out", str(tmp_path / "missing" / "ci.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, module, name", [
    (["enumerate", "--group", "2^3"], cli, "enumerate_srings"),
    (["classify", "--p", "3"], catalog_module, "enumerate_srings"),
    (["ci", "--update-catalog"], cli, "_decide_entry"),
    (["criterion", "--group", "2^3"], cli, "enumerate_srings"),
], ids=["enumerate", "classify", "ci", "criterion"])
def test_output_into_a_missing_directory_fails_before_any_work(
        tmp_path, monkeypatch, capsys, argv, module, name):
    cat = _c8_catalog(tmp_path)
    before = cat.read_bytes()
    if argv[0] == "ci":
        argv = argv + ["--catalog", str(cat)]
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "missing" / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert cat.read_bytes() == before


@pytest.mark.parametrize("limit", ["-1", "nan"])
def test_a_negative_or_nan_time_limit_is_a_usage_error(tmp_path, capsys,
                                                       limit):
    out = tmp_path / "t.txt"
    assert main(["ci", "--catalog", str(tmp_path / "c4.cat"), "--out",
                 str(out), "--time-limit", limit]) == 2
    assert "error: argument --time-limit" in capsys.readouterr().err
    assert not out.exists()


def test_ci_sends_its_bounds_to_each_entry(tmp_path, monkeypatch):
    # the Bounds of the command line reach the decider unchanged
    seen = []
    real = cli.decide_ci

    def spy(ring, bounds):
        seen.append(bounds)
        return real(ring, bounds)

    monkeypatch.setattr(cli, "decide_ci", spy)
    cat = _c8_catalog(tmp_path)
    assert main(["ci", "--catalog", str(cat), "--extended",
                 "--out", str(tmp_path / "ci.txt")]) == 0
    assert seen and set(seen) == {cli.extended_bounds()}
