"""Replay the pinned CLI corpus: same stdout bytes, stderr and exit codes.

The corpus lives in tests/fixtures/cli_corpus/ and is described in
tests/cli_corpus.py.  Refactors must leave every case byte-identical.
"""

import json

import pytest

from cli_corpus import CASES, CORPUS, run

MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))


def test_manifest_lists_every_case_in_order():
    # a case added to CASES but never captured would never be replayed
    assert [(case["name"], case["argv"]) for case in MANIFEST] == [
        (name, argv) for name, argv in CASES
    ]


def test_corpus_covers_every_subcommand():
    used = {case["argv"][0] for case in MANIFEST}
    assert used == {
        "gen", "color", "verify", "chromatic", "decompose", "to-efl",
        "sweep", "export-dot",
    }
    assert {case["exit"] for case in MANIFEST} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("case", MANIFEST, ids=lambda case: case["name"])
def test_replay_is_byte_identical(case):
    code, out, err = run(case["argv"])
    expected = (CORPUS / f"{case['name']}.stdout").read_text(encoding="utf-8")
    assert code == case["exit"]
    assert out == expected
    assert err == case["stderr"]
