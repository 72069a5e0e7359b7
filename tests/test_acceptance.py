"""Acceptance gate: every criterion from the built-in registry must pass.

Exact criteria admit zero tolerance; the statistical ones run at their
stated replication counts on pinned deterministic seeds.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import pytest

import negdep.analyzer as mod
from negdep.acceptance import CRITERIA


@pytest.mark.parametrize("cid,name,fn", CRITERIA, ids=[f"{c}-{n}" for c, n, _ in CRITERIA])
def test_criterion(cid, name, fn):
    result = fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {cid} ({name}): {result.detail}")
    assert result.passed, f"criterion {cid} ({name}): {result.detail}"


def test_stratified_criterion_checks_the_auto_route(monkeypatch):
    # pairprob --scheme stratified answers by _step_terms under method "auto";
    # criterion 8 must see a fault there, not only in the enumerated route
    step_terms = mod._step_terms

    def off_by_one(*args):
        (joint, *rest), *others = step_terms(*args)
        return [(joint + 1, *rest), *others]

    monkeypatch.setattr(mod, "_step_terms", off_by_one)
    result = {cid: fn for cid, _, fn in CRITERIA}["8"]()
    assert not result.passed
    assert result.detail.startswith("auto mismatch at N=2")
