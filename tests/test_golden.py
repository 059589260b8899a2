"""Golden digests of CLI outputs.

Refactors must leave every catalog and report byte-identical.  The
commands run in a temporary working directory with relative paths,
because the ci report header echoes the catalog path.  The 3^3 p-catalog
and the 2^4 catalog carry cyc(...) labels that depend on the matrix order
of the Cayley automorphisms; the longest, on the rank-2 ring over 2^4,
is the first 9 non-identity elements of GL(4,2).  Over 2x3^2 the power
maps force cells, which never happens over 2^4, so its catalog pins the
merge search's forced-cell path.  The regular-method reports pin the
regular-subgroup certificates, and the auto reports pin which rings each
method decides: a group ring as section ring, the section condition, or
the regular-subgroup criterion.  Over 2^2x3 the regular
method runs two primes, so its report pins the search that draws the
second prime's candidates from a representative's centralizer.  Over 2^4
and 3^3 it runs one prime, so every candidate comes from the search with
no generators; entry 2 of the 2^4 catalog has |K| = 3,251,404,800, and at
p = 3 the test of the points that the stabilizer fixes prunes the most.
With SRINGS_EXTENDED=1, the verdicts and certificates of is_ci over all
59 rings of the 2x3^2 catalog are pinned as well.
"""

import hashlib
import os

import pytest

from srings.ci import is_ci
from srings.cli import main

GOLDEN = {
    "enumerate 2^3":
        "89a3f5d543bdd1966c2b146ae36fd10703f6f7c7c15906acc0c88a2e5d3183de",
    "enumerate 3^2":
        "7d2d7620c04df8368f26d84e1f99bb8aac4a169d8c52f5dcc62b3fd2dd5c1975",
    "enumerate 2^2x3":
        "7890e6db5bb935cb8426cab3ca620de06b2f535bf65ed05d87d4821265f190f5",
    "enumerate 2^4":
        "eb9afa437fbc7c985d0fe19aee8e931980d8180f37a406688508dba777f26a56",
    "enumerate 2x3^2":
        "fa8bca76be1197e6b60c2755788970ec22eb115a247a23eb0db528d5092dfe05",
    "enumerate 3^3 p-srings":
        "147aa8bea2a1c322dab870d5670c9be7f625f4de6851d6b3a7d10b8b2f79a1a7",
    "ci auto 2^2x3":
        "cf646040fd7e4d211d3388ab1a8da1e8a3617a5474924308e9338907a8cbce93",
    "ci auto 2^4":
        "85310e5a237e68de1bf074d97a54b43007b71e1ebb92b1f6bf71b482396e7212",
    "ci regular 2^3":
        "9437d41c7bdbf0f1b623b8d06acc45a24a66ea93b61d2379ecff9321d395d0c5",
    "ci regular 3^2":
        "2a81c1c3fa6cacce72cadbc5423fb3a1f922db273fca256dbd6c5a508f00f624",
    "ci regular 2^2x3":
        "69571558ae6d10f8cf85cfa828f84ab83b923cb1a3bb2feae326664bffeeea69",
    "ci regular 2^4":
        "51ad90690e5ee2253673446d0a7c682644c9df440c629af489362dbc9143fb20",
    "ci regular 3^3 p-srings":
        "2a2b7aeed663f38f3b5e87e8912c18f2c25627f313d562f74c679c0fb161660c",
    "classify 3":
        "f7dd44ff6ec79ee838b7630e63572d5e8141b081e529928ca581a461521df0d2",
    "criterion 2^3":
        "2b753b841b6ba65f9a35017c5b3d4932e2e444006c58113d358bb77b69574862",
}

COMMANDS = (
    ("enumerate 2^3",
     ["enumerate", "--group", "2^3", "--out", "c8.cat"], "c8.cat"),
    ("enumerate 3^2",
     ["enumerate", "--group", "3^2", "--out", "c9.cat"], "c9.cat"),
    ("enumerate 2^2x3",
     ["enumerate", "--group", "2^2x3", "--out", "c12.cat"], "c12.cat"),
    ("enumerate 2^4",
     ["enumerate", "--group", "2^4", "--out", "c16.cat"], "c16.cat"),
    ("enumerate 2x3^2",
     ["enumerate", "--group", "2x3^2", "--out", "c18.cat"], "c18.cat"),
    ("enumerate 3^3 p-srings",
     ["enumerate", "--group", "3^3", "--filter", "p-srings",
      "--out", "c27p.cat"], "c27p.cat"),
    ("ci auto 2^2x3",
     ["ci", "--catalog", "c12.cat", "--method", "auto", "--out", "ci.txt"],
     "ci.txt"),
    ("ci auto 2^4",
     ["ci", "--catalog", "c16.cat", "--method", "auto", "--out", "ci16.txt"],
     "ci16.txt"),
    ("ci regular 2^3",
     ["ci", "--catalog", "c8.cat", "--method", "regular", "--out", "ci8.txt"],
     "ci8.txt"),
    ("ci regular 3^2",
     ["ci", "--catalog", "c9.cat", "--method", "regular", "--out", "ci9.txt"],
     "ci9.txt"),
    ("ci regular 2^2x3",
     ["ci", "--catalog", "c12.cat", "--method", "regular", "--out",
      "ci12.txt"], "ci12.txt"),
    ("ci regular 2^4",
     ["ci", "--catalog", "c16.cat", "--method", "regular", "--out",
      "ci16r.txt"], "ci16r.txt"),
    ("ci regular 3^3 p-srings",
     ["ci", "--catalog", "c27p.cat", "--method", "regular", "--out",
      "ci27r.txt"], "ci27r.txt"),
    ("classify 3", ["classify", "--p", "3", "--out", "rows.txt"], "rows.txt"),
    ("criterion 2^3",
     ["criterion", "--group", "2^3", "--out", "crit.txt"], "crit.txt"),
)


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, argv, out in COMMANDS:
        assert main(argv) == 0, name
        digests[name] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert digests == GOLDEN


@pytest.mark.skipif(os.environ.get("SRINGS_EXTENDED") != "1",
                    reason="25-s run; set SRINGS_EXTENDED=1 to enable")
def test_is_ci_over_2x3_2_matches_golden_digest(catalog_c18):
    statuses = [is_ci(ring) for ring in catalog_c18.rings()]
    assert len(statuses) == 59
    record = repr([(s.verdict, s.method, s.witness, s.resource)
                   for s in statuses])
    assert hashlib.sha256(record.encode()).hexdigest() == \
        "f21efe6d97681b26e3cedeeeb6998921ae3a205212294ccf3c223d39f484a8c8"
