"""Prints one PASS/FAIL line per acceptance criterion after the test run,
and provides the shared reproduction run and the environment of child
processes."""

import os
from pathlib import Path

import pytest

import qracsim
from qracsim.cli import run_reproduction

REFERENCE_SEED = 20220314


@pytest.fixture(scope="session")
def reproduction(tmp_path_factory):
    """One reproduce-all run at the reference seed, shared by every test that
    only reads its checks, summary or artifacts: (out_dir, checks, summary)."""
    out_dir = tmp_path_factory.mktemp("reports")
    checks, summary = run_reproduction(seed=REFERENCE_SEED, out_dir=out_dir)
    return out_dir, checks, summary


@pytest.fixture(scope="session")
def child_env():
    """os.environ with the qracsim under test first on PYTHONPATH, for tests
    that run the package in a child process."""
    src = str(Path(qracsim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_acceptance_labels = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py" in item.nodeid and item.function.__doc__:
            _acceptance_labels[item.nodeid] = item.function.__doc__.strip().splitlines()[0]


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            label = _acceptance_labels.get(report.nodeid)
            if label:
                lines.append((label, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, status in sorted(lines):
            terminalreporter.write_line(f"[{status}] {label}")
