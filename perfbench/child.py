"""Run one srings CLI command in a fresh process, optionally traced.

    python child.py RESULT GROUP setup
    python child.py RESULT GROUP run   SRINGS_ARGS...
    python child.py RESULT GROUP trace SRINGS_ARGS...

The parent puts the repository's src/ on PYTHONPATH and sets the working
directory.  The child imports srings, builds the tables of GROUP (the
set-up the parent times from spawn to the "ready" clock reading), then
runs ``srings.cli.main(SRINGS_ARGS)`` unless the mode is "setup".  It
writes one JSON object to RESULT: clock readings, the exit code, wall
time and peak RSS; in "run" mode also the speed probe's samples, in
"trace" mode the spans and counters.

Tracing wraps public functions of each layer at every module that binds
them (``from x import f`` makes a copy).  Inner kernels such as ``pmul``,
``GroupSpec.add`` and ``_search_maps`` are left alone: they run millions
of times and their spans would swamp the overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402


# Host speed probe.  The speed of a shared host drifts, in CPU time as much
# as in wall time, so while a command runs a thread times a fixed
# pure-Python loop every PROBE_INTERVAL_S.  It runs on the command's core,
# so its times follow the speed the command saw; each sample holds the
# interpreter lock for about a millisecond.
PROBE_INTERVAL_S = 0.2
PROBE_LOOPS = 15000


def _probe_loop():
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager sampling the probe loop's time in a thread."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            start = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _count_k_elements(rec, args):
    # the search streams every element of K, except for the full
    # symmetric group, which it answers at once
    K = args[0]
    if not K.is_symmetric():
        rec.count("permgrp.regular_subgroups.k_elements", K.order())


def _count_classes(rec, args, result):
    rec.count("permgrp.regular_subgroups.classes", len(result))


def _count_aut_elements(rec, args, result):
    rec.count("groups.all_auts.elements", len(result))


def _count_catalog_classes(rec, args, result):
    rec.count("catalog.enumerate_srings.classes", len(result.entries))


def _count_decider_hit(rec, args):
    decider, ring = args[0], args[1]
    if (ring.spec.factors, ring.cells) in decider.cache:
        rec.count("ci.decider.hits")


# (module, attribute, span name, before hook, after hook)
FUNCTIONS = (
    ("catalog", "canonical_partition", "catalog.canonical_partition",
     None, None),
    ("catalog", "enumerate_srings", "catalog.enumerate_srings",
     None, _count_catalog_classes),
    ("catalog", "load_catalog", "catalog.load_catalog", None, None),
    ("construct", "recognize_construction", "construct.recognize_construction",
     None, None),
    ("construct", "decompositions", "construct.decompositions", None, None),
    ("sring", "validate_partition", "sring.validate_partition", None, None),
    ("groups", "all_auts", "groups.all_auts", None, _count_aut_elements),
    ("morphisms", "cayley_isos", "morphisms.cayley_isos", None, None),
    ("morphisms", "cayley_auts", "morphisms.cayley_auts", None, None),
    ("morphisms", "scheme_aut", "morphisms.scheme_aut", None, None),
    ("morphisms", "is_2_minimal", "morphisms.is_2_minimal", None, None),
    ("morphisms", "is_cayley_minimal", "morphisms.is_cayley_minimal",
     None, None),
    ("permgrp", "regular_subgroups", "permgrp.regular_subgroups",
     _count_k_elements, _count_classes),
    ("permgrp", "subgroups_between", "permgrp.subgroups_between", None, None),
    ("ci", "is_ci", "ci.is_ci", None, None),
    ("ci", "condition_holds", "ci.condition_holds", None, None),
)

# (module, class, method, span name, before hook)
CLASS_METHODS = (
    ("permgrp", "PermGroup", "__init__", "permgrp.PermGroup", None),
    ("ci", "CIDecider", "decide", "ci.decider", _count_decider_hit),
)

# The CLI's per-entry deciders: one "ci.entry" span around each call.
ENTRY_POINTS = ("decide_ci", "is_ci")


def install(rec: Recorder):
    """Wrap every traced function of srings in spans recorded by rec."""
    names = ("catalog", "ci", "cli", "construct", "groups", "morphisms",
             "permgrp", "sring")
    modules = [importlib.import_module("srings")] + \
        [importlib.import_module(f"srings.{n}") for n in names]
    for mod_name, attr, span, before, after in FUNCTIONS:
        original = getattr(importlib.import_module(f"srings.{mod_name}"), attr)
        wrapped = rec.wrap(span, original, before, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    for mod_name, cls_name, method, span, before in CLASS_METHODS:
        cls = getattr(importlib.import_module(f"srings.{mod_name}"), cls_name)
        setattr(cls, method, rec.wrap(span, getattr(cls, method), before))
    cli = importlib.import_module("srings.cli")
    for attr in ENTRY_POINTS:
        setattr(cli, attr, rec.wrap("ci.entry", getattr(cli, attr)))


def main(argv) -> int:
    result_path, group, mode = argv[0], argv[1], argv[2]
    cli_args = argv[3:]
    from srings.groups import parse_group
    import srings.cli

    parse_group(group, max_order=None).add_table()
    result = {"ready": time.monotonic()}
    if mode != "setup":
        command = srings.cli.main
        if mode == "trace":
            rec = Recorder()
            install(rec)
            command = rec.wrap("cli.main", command)
            result["spans"] = rec.spans
            result["counters"] = rec.counters
            probe = contextlib.nullcontext()
        else:
            probe = SpeedProbe()
            result["probe_s"] = probe.samples
        with probe:
            start = time.perf_counter()
            result["rc"] = command(cli_args)
            result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
