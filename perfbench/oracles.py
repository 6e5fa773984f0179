"""Output oracles for the benchmark workloads.

Each oracle is a pure function of values the driver collected, so a test can
plant a fault by handing it a tampered value. Every oracle returns Check
objects; each one counts as one attempted operation, and each failed one as
one failure, in the run's error rate. The expected values come from the
workload definitions (commanded values, generated active sets, tick
numbers), never from the program's own matching code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

QUERY_WINDOW = 10  # ticks covered by one scale-fleet dashboard query


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, passed, "" if passed else detail)


def decision_digest(lines: Iterable[str]) -> str:
    """sha256 over canonical decision lines, each terminated by a newline."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def check_digest(digest: str, expected: str, source: str) -> Check:
    return _check("decision-digest", digest == expected,
                  f"digest {digest[:16]} differs from {source} {expected[:16]}")


def check_shadow(pulls: int, actual_records: int, model_level, last_pull_value) -> list[Check]:
    """demo-shadow: one asset-origin record per pull; the model holds the last pull."""
    return [
        _check("shadow-records", actual_records == pulls,
               f"{actual_records} actual-system records for {pulls} pull decisions"),
        _check("shadow-level", model_level == last_pull_value,
               f"model level {model_level!r} != last pulled value {last_pull_value!r}"),
    ]


def check_command(pushes: int, edits: int, asset_valve, last_commanded,
                  journal_lines: int, records: int) -> list[Check]:
    """twin-command: one push per edit, the asset holds the last command, journal complete."""
    return [
        _check("command-pushes", pushes == edits,
               f"{pushes} push-dt-to-as decisions for {edits} edits"),
        _check("command-valve", asset_valve == last_commanded,
               f"asset valve {asset_valve!r} != last commanded {last_commanded!r}"),
        _check("command-journal", journal_lines == records,
               f"journal has {journal_lines} lines for {records} ingested records"),
    ]


def expected_query_count(tick: int, active: int) -> int:
    """Records a scale-fleet query at ``tick`` must return: one per active pull per tick."""
    return active * min(QUERY_WINDOW, tick)


def check_fleet_query(tick: int, returned: int, active: int) -> Check:
    expected = expected_query_count(tick, active)
    return _check("fleet-query", returned == expected,
                  f"query at tick {tick} returned {returned} records, expected {expected}")


def check_fleet_idle(decided_mappings: Iterable[str], active_ids: set[str]) -> Check:
    """scale-fleet: the mappings on the idle tank g1 never produce a decision."""
    idle = sorted(set(decided_mappings) - active_ids)
    return _check("fleet-idle", not idle,
                  f"{len(idle)} idle mapping(s) decided, first {idle[:3]}")
