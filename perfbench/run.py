"""Benchmark of the srings CLI: four workloads, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Load shape: one closed-loop client.  Each CLI command
runs alone, with ``--workers 1`` and default bounds, in a fresh child
process and a fresh working directory, so no memo, catalog or file carries
over from one command to the next.

Untraced (--trace 0), commands repeat until S seconds have passed and the
last line printed is the end-to-end result, each a median: wall_rel and
peak_rss_mb over commands, and setup_s over several set-up-only children
and the command children.  wall_rel is the CLI command's wall time inside
the child divided by the trimmed mean time of the speed probe (child.py)
sampled while it ran: the speed of a shared host drifts by up to 1.8x
over minutes, and the ratio cancels that drift.  The raw wall_s and
items_per_s are reported in the details line.

Traced (--trace 1), the command runs once untraced and once with every
layer wrapped in spans (see child.py); the last line holds the per-layer
metrics.  In both modes the line before the result is a JSON record of
the seed, the workload's rationale, the environment, every sample with
its median, count and tail percentile, and failed_ratio.

Every command's output is checked against values pinned from a trusted
run.  An operation is one command for the enumeration workloads and one
catalog entry for the CI workloads; it fails on a non-zero exit code, an
Undecided verdict or any output that differs from the pin.  The exit code
is 0 whenever a result is printed, with the checks' outcome in it; it is
non-zero, with no result, when no command could be measured at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DATA = os.path.join(HERE, "data")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)

from spans import summarize, self_times, tail_percentile  # noqa: E402

# Set-up-only children per run, after one uncounted warm-up child.
SETUP_SAMPLES = 7
# A run must end within this many seconds, its set-up included.
RUN_LIMIT_S = 170.0

# Verdict methods the CLI reports; anything else counts as "other".
CI_METHODS = ("bruteforce", "regular-subgroups", "fastpath-trivial",
              "fastpath-min", "fastpath-thin", "fastpath-easy",
              "fastpath-quotient", "section-condition")

END_TO_END = (("wall_rel", "probe"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Share of probe samples dropped at each end before averaging: a sample
# can catch a stall that the command did not share.
PROBE_TRIM = 0.1

PER_LAYER = (
    ("catalog.canonical_partition.calls", "count"),
    ("catalog.canonical_partition.self_s", "s"),
    ("catalog.enumerate_srings.self_s", "s"),
    ("catalog.classes_per_leaf", "ratio"),
    ("catalog.load_catalog.s", "s"),
    ("construct.recognize_construction.calls", "count"),
    ("construct.recognize_construction.s", "s"),
    ("construct.decompositions.calls", "count"),
    ("construct.decompositions.self_s", "s"),
    ("sring.validate_partition.calls", "count"),
    ("sring.validate_partition.self_s", "s"),
    ("groups.all_auts.calls", "count"),
    ("groups.all_auts.self_s", "s"),
    ("groups.all_auts.elements", "count"),
    ("morphisms.cayley_isos.calls", "count"),
    ("morphisms.cayley_isos.self_s", "s"),
    ("morphisms.cayley_auts.calls", "count"),
    ("morphisms.scheme_aut.calls", "count"),
    ("morphisms.scheme_aut.self_s", "s"),
    ("morphisms.is_2_minimal.s", "s"),
    ("morphisms.is_cayley_minimal.s", "s"),
    ("permgrp.regular_subgroups.calls", "count"),
    ("permgrp.regular_subgroups.self_s", "s"),
    ("permgrp.regular_subgroups.k_elements", "count"),
    ("permgrp.regular_subgroups.classes", "count"),
    ("permgrp.subgroups_between.calls", "count"),
    ("permgrp.subgroups_between.self_s", "s"),
    ("permgrp.PermGroup.calls", "count"),
    ("permgrp.PermGroup.self_s", "s"),
    ("ci.entry_s.p50", "s"),
    ("ci.entry_s.max", "s"),
    ("ci.is_ci.calls", "count"),
    ("ci.is_ci.self_s", "s"),
    ("ci.condition_holds.calls", "count"),
    ("ci.condition_holds.self_s", "s"),
    ("ci.decider.calls", "count"),
    ("ci.decider.cache_hit_ratio", "ratio"),
) + tuple((f"ci.method.{m}", "count") for m in CI_METHODS + ("other",)) + (
    ("trace.wall_s", "s"),
    ("trace.root_self_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
)


def trimmed_mean(samples, trim=PROBE_TRIM):
    """Mean of the samples without the lowest and highest trim share."""
    xs = sorted(samples)
    k = int(len(xs) * trim)
    return statistics.fmean(xs[k:len(xs) - k])


# -- output checks ---------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one command did: operations attempted and failed, items done."""

    attempted: int
    failed: int
    items: int
    methods: dict = dataclasses.field(default_factory=dict)


def _read_jsonl(path):
    """The JSON lines of a CLI output file, or None if it is unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError):
        return None


def check_enumerate(rc, workdir, pin) -> Outcome:
    """One operation: the catalog header must match the pin exactly."""
    lines = _read_jsonl(os.path.join(workdir, "out.cat"))
    header = lines[0] if lines else {}
    ok = rc == 0 and all(header.get(k) == v for k, v in pin.items())
    return Outcome(1, 0 if ok else 1, pin["raw_total"] if ok else 0)


def check_classify(rc, workdir, pin) -> Outcome:
    """One operation: class count, raw total and the six table rows."""
    lines = _read_jsonl(os.path.join(workdir, "rows.txt"))
    ok = rc == 0 and bool(lines)
    if ok:
        header, rows = lines[0], lines[1:]
        got = [[r.get("rank"), r.get("decomposable"),
                r.get("thin_radical_order"), r.get("raw_count")]
               for r in rows]
        ok = (header.get("classes") == len(pin["rows"])
              and header.get("raw_total") == pin["raw_total"]
              and got == pin["rows"])
    return Outcome(1, 0 if ok else 1, pin["raw_total"] if ok else 0)


def check_ci(rc, workdir, pin) -> Outcome:
    """One operation per catalog entry: its verdict must match the pin."""
    want = pin["verdicts"]
    lines = _read_jsonl(os.path.join(workdir, "ci.txt"))
    records = lines[1:] if lines else []
    methods = {}
    if rc != 0 or [r.get("entry") for r in records] != list(range(len(want))):
        return Outcome(len(want), len(want), 0)
    failed = 0
    for rec, verdict in zip(records, want):
        if rec.get("verdict") != verdict:
            failed += 1
        method = rec.get("method")
        key = method if method in CI_METHODS else "other"
        methods[key] = methods.get(key, 0) + 1
    return Outcome(len(want), failed, len(want) - failed, methods)


# -- workloads -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    group: str
    argv: tuple
    check: object
    pin: dict
    catalog: str | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "enum-c16",
        "enumerate 2^4 with labels: the merge tree and one canonical form per "
        "raw ring (12,537 leaves, 43 classes); barely touches permgrp or ci",
        "2^4", ("enumerate", "--group", "2^4", "--filter", "all",
                "--out", "out.cat"),
        check_enumerate,
        {"count": 43, "raw_total": 12537, "digest":
         "7f6659cc531bf03f094ce2f80047e0d6e6c70ff6a0fbde9a31e5b566893182e1"}),
    Workload(
        "classify-p3",
        "rank-3 table over 3^3: pruned p-power search with few leaves, each "
        "canonical form costly (|Aut|=11,232), labels about 40%",
        "3^3", ("classify", "--p", "3", "--out", "rows.txt"),
        check_classify,
        {"raw_total": 443,
         "rows": [[27, False, 27, 1], [11, True, 9, 13], [11, True, 3, 13],
                  [15, True, 9, 52], [7, True, 3, 52],
                  [11, False, 3, 312]]}),
    Workload(
        "ci-regular-c12",
        "ci --method regular over the 33-entry 2^2x3 catalog: one huge "
        "regular-subgroup search (|K|=1,036,800) dominates",
        "2^2x3", ("ci", "--catalog", "in.cat", "--method", "regular",
                  "--out", "ci.txt", "--workers", "1"),
        check_ci, {"verdicts": ["CI"] * 33}, catalog="c12.cat"),
    Workload(
        "ci-auto-c16",
        "ci --method auto over the 43-entry 2^4 catalog: fast paths, section "
        "condition, Cayley isos and many small permgrp searches",
        "2^4", ("ci", "--catalog", "in.cat", "--method", "auto",
                "--out", "ci.txt", "--workers", "1"),
        check_ci, {"verdicts": ["CI"] * 43}, catalog="c16.cat"),
)}


def make_input_catalog(source, dest, seed):
    """Relabel each entry of the fixed catalog by one random element of
    Aut(G) drawn from seed, re-validate it and save it.  CI verdicts are
    invariant under Aut(G), so the pinned verdicts still hold."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from srings.catalog import (Catalog, canonical_form, load_catalog,
                                save_catalog)
    from srings.groups import aut_group
    from srings.sring import validate_partition

    catalog = load_catalog(source)
    autg = aut_group(catalog.spec)
    rng = random.Random(seed)
    entries = []
    for entry in catalog.entries:
        perm = autg.random_element(rng)
        ring = validate_partition(
            catalog.spec, [frozenset(perm[x] for x in c) for c in entry.cells])
        if canonical_form(ring) != entry.canonical:
            raise RuntimeError("relabeled entry left its Cayley class")
        # construction labels name subgroups in coordinates the
        # relabeling moved, so they are dropped
        entries.append(dataclasses.replace(entry, cells=ring.cells,
                                           construction=None))
    save_catalog(Catalog(catalog.spec, catalog.sring_filter, entries,
                         catalog.raw_total), dest)


# -- child processes --------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def run_child(workdir, group, mode, cli_args=(), timeout=RUN_LIMIT_S):
    """Run child.py in workdir; its result record with setup_s added."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "child.json")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, result_path, group, mode, *cli_args],
            cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-2000:]
        raise ChildError(f"{mode} child exited {proc.returncode}: {tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    return result


# -- one run ----------------------------------------------------------------------


class Run:
    """The state of one benchmark run of one workload."""

    def __init__(self, workload: Workload, base: str, started: float):
        self.workload = workload
        self.base = base
        self.started = started
        self.commands = 0
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.samples = {"wall_rel": [], "wall_s": [], "items_per_s": [],
                        "probe_s": [], "peak_rss_mb": []}
        self.errors = []

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def setup_sample(self):
        workdir = os.path.join(self.base, "setup")
        result = run_child(workdir, self.workload.group, "setup",
                           timeout=self.remaining())
        shutil.rmtree(workdir)
        return result["setup_s"]

    def command(self, mode, input_catalog):
        """Run the workload's command once; its child result, or None."""
        w = self.workload
        self.commands += 1
        workdir = os.path.join(self.base, f"cmd-{self.commands}")
        os.makedirs(workdir)
        if input_catalog:
            shutil.copy(input_catalog, os.path.join(workdir, "in.cat"))
        try:
            result = run_child(workdir, w.group, mode, w.argv,
                               timeout=self.remaining())
        except ChildError as exc:
            self.errors.append(str(exc))
            result = None
        rc = result["rc"] if result else None
        outcome = w.check(rc, workdir, w.pin)
        shutil.rmtree(workdir)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if result is None:
            return None, outcome
        self.setup_s.append(result["setup_s"])
        if mode == "run":
            wall = result["wall_s"]
            probe = trimmed_mean(result["probe_s"])
            self.samples["wall_rel"].append(wall / probe)
            self.samples["wall_s"].append(wall)
            self.samples["items_per_s"].append(outcome.items / wall)
            self.samples["probe_s"].append(probe)
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
        return result, outcome


def layer_metrics(traced, outcome, untraced_wall):
    """Per-layer metrics of one traced command's spans and counters."""
    spans = traced["spans"]
    counters = traced["counters"]
    layers = summarize(spans)

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    values = {}
    for name, _unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "s"):
            values[name] = get(layer, field)
    values["groups.all_auts.elements"] = counters.get(
        "groups.all_auts.elements", 0)
    for key in ("k_elements", "classes"):
        values[f"permgrp.regular_subgroups.{key}"] = counters.get(
            f"permgrp.regular_subgroups.{key}", 0)
    leaves = get("catalog.canonical_partition", "calls")
    values["catalog.classes_per_leaf"] = (
        counters.get("catalog.enumerate_srings.classes", 0) / leaves
        if leaves else 0)
    decides = get("ci.decider", "calls")
    values["ci.decider.calls"] = decides
    values["ci.decider.cache_hit_ratio"] = (
        counters.get("ci.decider.hits", 0) / decides if decides else 0)
    entries = [end - start for name, start, end, _ in spans
               if name == "ci.entry"]
    values["ci.entry_s.p50"] = statistics.median(entries) if entries else 0
    values["ci.entry_s.max"] = max(entries, default=0)
    for method in CI_METHODS + ("other",):
        values[f"ci.method.{method}"] = outcome.methods.get(method, 0)
    roots = [i for i, span in enumerate(spans) if span[3] == -1]
    root_start, root_end = spans[roots[0]][1:3]
    own = self_times(spans)
    values["trace.wall_s"] = root_end - root_start
    values["trace.root_self_s"] = own[roots[0]]
    values["trace.self_sum_s"] = sum(own)
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    consistent = len(roots) == 1 and \
        abs(values["trace.self_sum_s"] - values["trace.wall_s"]) <= 1e-6
    return values, consistent


def describe(samples):
    """Median, sample count and tail percentile of one metric's samples."""
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples) if samples else None,
            "n": len(samples),
            "tail": {"percentile": tail[0], "value": tail[1]}
            if tail else None}


def measure(workload, seed, seconds, trace):
    """Run one benchmark run; (details record, final result line)."""
    started = time.monotonic()
    base = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    run = Run(workload, base, started)
    load_before = os.getloadavg()
    try:
        input_catalog = None
        if workload.catalog:
            input_catalog = os.path.join(base, "in.cat")
            make_input_catalog(os.path.join(DATA, workload.catalog),
                               input_catalog, seed)
        run.setup_sample()  # warm-up: bytecode caches, page cache
        run.setup_s = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
        consistent = True
        if trace:
            plain, _ = run.command("run", input_catalog)
            traced, outcome = run.command("trace", input_catalog)
            if plain is None or traced is None:
                raise ChildError("; ".join(run.errors))
            metrics, consistent = layer_metrics(traced, outcome,
                                                plain["wall_s"])
            units = dict(PER_LAYER)
        else:
            loop_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                result, _ = run.command("run", input_catalog)
                last = time.monotonic() - t0
                if result is None:
                    break
                if time.monotonic() - loop_start >= seconds:
                    break
                if run.remaining() < 1.5 * last + 5:
                    break
            if not run.samples["wall_s"]:
                raise ChildError("; ".join(run.errors))
            metrics = {name: statistics.median(run.samples[name])
                       for name in run.samples}
            metrics["setup_s"] = statistics.median(run.setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's files are still there
            pass
    load_after = os.getloadavg()
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seed_used": workload.catalog is not None,
        "seconds": seconds,
        "trace": trace,
        "load_shape": "closed loop, 1 client, --workers 1, default bounds",
        "env": {"python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "loadavg_before": list(load_before),
                "loadavg_after": list(load_after)},
        "commands": run.commands,
        "failed_ratio": run.failed / run.attempted,
        "errors": run.errors,
        "trace_consistent": consistent,
        "timings": {name: describe(samples) for name, samples in
                    dict(run.samples, setup_s=run.setup_s).items()},
        "samples": dict(run.samples, setup_s=run.setup_s),
    }
    final = {
        "correct": run.failed == 0 and not run.errors and consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return details, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srings", "__init__.py")):
        print(f"error: no srings sources under {SRC}", file=sys.stderr)
        return 2
    try:
        details, final = measure(WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
