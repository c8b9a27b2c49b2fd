"""Replay of the library contract corpus, ``tests/contract/library.json``.

The corpus is written by ``tests/contract/make.py`` and changed only as
a deliberate contract change; see that module's docstring."""

import json
import subprocess
import sys

import child
import pytest
from contract import make


@pytest.mark.parametrize("key", ["covers", "forms", "graphs", "motegi", "scalars", "spectra"])
def test_corpus_replays(key):
    stored = json.loads(make.LIBRARY.read_text("utf-8"))[key]
    got = getattr(make, f"{key}_digests")()
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
