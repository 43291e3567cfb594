"""Acceptance suite: the full side of every check in `stickywalk.harness.CHECKS`.

Run with `pytest tests/test_acceptance.py -v -s`: each check prints one
pass/fail line with its measured numbers, each bounded one next to its
bound.  The parameters and bounds live in that one table, whose quick sides
the self-test runs, and `run_check` holds every side to them by one rule.
Five criteria keep their numbered test names and run their entries by name;
`test_acceptance` runs every other entry with a full side.
"""

import time

import pytest

from stickywalk.harness import CHECKS, run_check

_NAMED = {
    "gf_identity",
    "ell_transform",
    "covariance_consistency",
    "variant_discrimination",
    "variant_asymptotics",
    "special_functions",
}


def _run_full(check):
    started = time.time()
    passed, detail = run_check(check, "full")
    print(f"[acceptance] {check.name}: {'PASS' if passed else 'FAIL'} "
          f"[{time.time() - started:.1f}s] {detail}")
    assert passed, f"{check.name}: {detail}"


def _run_entries(*names):
    by_name = {c.name: c for c in CHECKS}
    for name in names:
        _run_full(by_name[name])


@pytest.mark.parametrize(
    "check", [c for c in CHECKS if c.full is not None and c.name not in _NAMED],
    ids=lambda c: c.name,
)
def test_acceptance(check):
    _run_full(check)


def test_criterion_02_generating_functions():
    _run_entries("gf_identity")


def test_criterion_04_ell_transform_consistency():
    _run_entries("ell_transform")


def test_criterion_07_covariance():
    _run_entries("covariance_consistency")


def test_criterion_09_coupling_variants():
    _run_entries("variant_discrimination", "variant_asymptotics")


def test_criterion_10_special_functions():
    _run_entries("special_functions")


def test_named_entries_cover_the_full_sides():
    full = {c.name for c in CHECKS if c.full is not None}
    assert _NAMED <= full
