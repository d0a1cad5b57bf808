"""Recorded campaign reports the engine must reproduce byte for byte.

Each ``tests/golden/campaign_<name>.json`` holds ``{"config": ...,
"report": ...}``: a campaign config (as ``_canonical`` encodes it) and
the report the round-barrier engine — the batch-synchronous discipline
the streaming engine replaced — rendered for it.  The report is
``report.to_dict()`` without the campaign id: the id hashes the
simulator's source, so it moves with every edit, while the records and
statistics must not.  After a deliberate change to simulation results,
re-record a file in that format from a reviewed run and commit it with
the change that caused it.

``tests/test_harness_scheduler.py`` checks the ``bench_*`` ones, the
larger smoke and adaptive-stopping campaigns, at one and two workers.
"""

import json
import pathlib

from repro.harness.cache import _canonical

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"campaign_{name}.json").read_text())


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def report_body(report) -> str:
    """*report*'s canonical JSON without the campaign id."""
    payload = report.to_dict()
    payload.pop("campaign")
    return _render(payload)


def reference_body(name: str, config) -> str:
    """The recorded report *name*, checking it was made for *config*."""
    data = _load(name)
    assert data["config"] == _canonical(config), (
        f"campaign_{name}.json was recorded for a different campaign config"
    )
    return _render(data["report"])


def assert_matches_reference(report, name: str) -> None:
    """Fail unless *report* equals the recorded report *name*."""
    assert report_body(report) == reference_body(name, report.config)

