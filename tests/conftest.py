"""Shared test set-up.

CLI subprocesses started by the tests import the aperiodix the tests import,
and the five families' correspondence reports are built once per session.
"""

import os
from pathlib import Path

import pytest

import aperiodix
from aperiodix.report import bloch_report

_SRC = str(Path(aperiodix.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def reports():
    return {family: bloch_report(family)
            for family in ("periodic", "fibonacci", "thue-morse",
                           "period-doubling", "rudin-shapiro")}
