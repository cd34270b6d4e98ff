"""Golden regression: a committed sweep must reproduce its committed CSVs.

Criterion 9 compares two runs of the same code, so it cannot see drift
between versions; these files can. A change that alters them on purpose
regenerates them with

    crn-multicast sweep --config tests/golden/sweep.cfg --out tests/golden

and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from crn_multicast.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["sweep", "--config", str(GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_sweep_reproduces_golden_bytes(rerun, name):
    assert (rerun / name).read_bytes() == (GOLDEN / name).read_bytes()
