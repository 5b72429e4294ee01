"""Replay the pinned CLI corpus: same stdout bytes, stderr and exit codes.

The corpus lives in tests/fixtures/cli_corpus/ and is described in
tests/cli_corpus.py.  Refactors must leave every case byte-identical.
"""

import json
import shutil

import pytest

import cli_corpus
from cli_corpus import CASES, CORPUS, OUT, run

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
    code, out, err, written = run(case["argv"])
    expected = (CORPUS / f"{case['name']}.stdout").read_text(encoding="utf-8")
    assert code == case["exit"]
    assert out == expected
    assert err == case["stderr"]
    pinned = CORPUS / f"{case['name']}.out"
    assert (written is not None) == (OUT in case["argv"]) == pinned.exists()
    if written is not None:
        assert written == pinned.read_text(encoding="utf-8")


def test_named_capture_keeps_every_other_case(tmp_path, monkeypatch):
    # recapturing named cases into a copy of the corpus rewrites only
    # their files, from the same bytes, and refuses an unknown name
    copy = tmp_path / "cli_corpus"
    shutil.copytree(CORPUS, copy)
    monkeypatch.setattr(cli_corpus, "CORPUS", copy)
    (copy / "sweep_5_3.stdout").write_text("stale\n", encoding="utf-8")
    captured = cli_corpus.capture(["sweep_5_3", "gen_all_2"])
    assert [case["name"] for case in captured] == ["gen_all_2", "sweep_5_3"]
    for path in sorted(CORPUS.rglob("*")):
        if path.is_file():
            assert (copy / path.relative_to(CORPUS)).read_bytes() == (
                path.read_bytes()
            ), path.name
    with pytest.raises(SystemExit, match="no such case: nope"):
        cli_corpus.capture(["nope"])
