"""CLI subprocesses started by the tests import the aperiodix the tests import."""

import os
from pathlib import Path

import aperiodix

_SRC = str(Path(aperiodix.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
