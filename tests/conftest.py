"""Shared fixtures plus the acceptance-line reporter.

Acceptance tests append one "[Cnn] name: PASS/FAIL (detail)" line per
criterion to ACCEPTANCE_LINES; the terminal-summary hook replays them after
the run so the verdicts survive pytest's output capture.
"""

from __future__ import annotations

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
