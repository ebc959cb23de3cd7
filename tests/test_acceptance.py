"""Acceptance gate: every criterion in the suite must pass.

Each test runs one criterion end to end at its stated tolerance and
prints a single PASS/FAIL line with the measured detail, so a bare
``pytest -v tests/test_acceptance.py`` doubles as the release report.
The full gate takes about 7 s on a 2-core x86-64 machine, 4.4 s of it
criterion 6; run it last.
"""

import re

import pytest

from cpint.acceptance import _CRITERIA, run_criterion


@pytest.mark.parametrize(
    "index", range(1, len(_CRITERIA) + 1),
    ids=[name for name, _ in _CRITERIA])
def test_criterion(index, capsys):
    result = run_criterion(index)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status} criterion {result.index:02d} {result.name}: "
              f"{result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{result.name}: {result.detail}"


def test_hake_fresnel_detail_holds_no_time():
    # the seconds are reported beside the detail, so the same code
    # prints the same detail from run to run
    assert re.fullmatch(r"err \S+ \(3184 lobes\)", run_criterion(2).detail)
