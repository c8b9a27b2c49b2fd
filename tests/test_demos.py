"""Each demo's stdout, byte for byte against ``demos/expected/``."""

from pathlib import Path

import child
import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
EXPECTED = DEMO_DIR / "expected"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_and_expected_files_pair_up():
    # an empty glob would leave the test below vacuous
    assert DEMOS
    assert [path.stem for path in sorted(EXPECTED.glob("*.txt"))] == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_matches_expected(demo):
    done = child.python(str(demo), text=False)
    expected = (EXPECTED / f"{demo.stem}.txt").read_bytes()
    assert (done.returncode, done.stdout) == (0, expected), done.stderr.decode(errors="replace")
