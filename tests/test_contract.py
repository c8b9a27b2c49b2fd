"""Replay of the library contract corpus, ``tests/contract/library.json``.

The corpus is written by ``tests/contract/make.py`` and changed only as
a deliberate contract change; see that module's docstring."""

import json
import subprocess
import sys

import child
from contract import make


def test_covers_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["covers"]
    got = make.covers_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_forms_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["forms"]
    got = make.forms_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_graphs_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["graphs"]
    got = make.graphs_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_motegi_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["motegi"]
    got = make.motegi_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_scalars_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["scalars"]
    got = make.scalars_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_spectra_corpus_replays():
    stored = json.loads(make.LIBRARY.read_text("utf-8"))["spectra"]
    got = make.spectra_digests()
    assert sorted(got) == sorted(stored)
    assert [name for name in stored if got[name] != stored[name]] == []


def test_generator_is_deterministic(tmp_path):
    # another process, with another string hash seed, writes the same bytes
    out = tmp_path / "library.json"
    subprocess.run([sys.executable, make.__file__, "--out", str(out)], check=True, env=child.env(PYTHONHASHSEED="1"))
    assert out.read_bytes() == make.LIBRARY.read_bytes()


def test_corpus_diff_names_each_added_removed_and_moved_entry():
    old = {"covers": {"a": "1", "b": "2"}, "forms": {"x": "9"}, "gone": {"z": "0"}}
    new = {"covers": {"a": "1", "b": "3", "c": "4"}, "forms": {"x": "9"}, "fresh": {"y": "5"}}
    assert make.corpus_diff(old, new) == {
        "covers": {"added": ["c"], "removed": [], "moved": ["b"]},
        "fresh": {"added": ["y"], "removed": [], "moved": []},
        "gone": {"added": [], "removed": ["z"], "moved": []},
    }
    assert make.corpus_diff(new, new) == {}
