"""The per-cell circuit breaker: systematic crashes stop early, identically.

A cell whose trials *all* exhaust their retry budget (a bogus scheme
knob, a broken native build, a poisoned input) should be declared
broken after ``breaker_threshold`` consecutive exhausted trials instead
of grinding through — and retrying — its entire trial budget.  Because
the breaker is a pure function of the committed records, consulted only
at batch-aligned counts, it trips at exactly the same record whatever
the worker count, and the report is byte-identical to the one the
batch-synchronous round engine recorded (``tests/golden/``).
"""

import pytest

from repro import recovery
from repro.harness.campaign import CampaignConfig, CampaignEngine, create_engine
from repro.harness.runner import ParallelRunner
from tests.campaign_reference import assert_matches_reference


def _crashing_config(**over):
    """Every ICR trial crashes in the worker (bogus scheme knob)."""
    base = dict(
        benchmarks=("gzip",),
        schemes=("ICR-P-PS(S)",),
        error_rates=(1e-2,),
        trials=12,
        batch_size=3,
        max_trial_retries=0,
        breaker_threshold=3,
        n_instructions=2_500,
        scheme_kwargs={"nosuch_knob": 1},
    )
    base.update(over)
    return CampaignConfig(**base)


class TestBreakerTrips:
    def test_breaker_fails_cell_early_with_diagnostic(self):
        before = recovery.counter("breaker_trips")
        engine = CampaignEngine(_crashing_config())
        report = engine.run()
        (outcome,) = report.outcomes
        assert outcome.broken is not None
        assert "circuit breaker" in outcome.broken
        # Tripped at the first batch boundary: 3 records, not 12.
        assert len(outcome.records) == 3
        assert outcome.summary(engine.config)["broken"] == outcome.broken
        assert engine.telemetry()["breaker_trips"] == 1
        assert recovery.counter("breaker_trips") == before + 1

    def test_zero_threshold_disables_breaker(self):
        config = _crashing_config(breaker_threshold=0, trials=6)
        report = CampaignEngine(config).run()
        (outcome,) = report.outcomes
        assert outcome.broken is None
        assert len(outcome.records) == 6  # ground through the budget

    def test_healthy_cell_never_trips(self):
        config = _crashing_config(
            schemes=("BaseP",),  # ignores the bogus ICR knob
            trials=6,
        )
        report = CampaignEngine(config).run()
        (outcome,) = report.outcomes
        assert outcome.broken is None
        assert len(outcome.ok_records()) == 6

    def test_round_and_stealing_reports_identical(self):
        config = _crashing_config(
            schemes=("BaseP", "ICR-P-PS(S)"),
            trials=6,
        )
        serial_report = create_engine(config, ParallelRunner(jobs=1)).run()
        pool_report = create_engine(config, ParallelRunner(jobs=2)).run()
        assert_matches_reference(serial_report, "breaker")
        assert_matches_reference(pool_report, "breaker")
        by_scheme = {o.cell.scheme: o for o in serial_report.outcomes}
        assert by_scheme["ICR-P-PS(S)"].broken is not None
        assert by_scheme["BaseP"].broken is None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="breaker_threshold"):
            _crashing_config(breaker_threshold=-1)
