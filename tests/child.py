"""Child Python processes that import ``repvol`` from this checkout's
``src``, ahead of any ``PYTHONPATH`` they inherit."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def env(**extra: str) -> dict:
    """``os.environ`` with ``extra`` set and ``SRC`` first on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def python(*args: str, timeout: float = 30, text: bool = True) -> subprocess.CompletedProcess:
    """``python args`` in a child process, its output captured."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, env=env(), timeout=timeout)
