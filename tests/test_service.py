"""End-to-end tests for the simulation job server.

These pin the ISSUE's acceptance behaviors: N concurrent identical
submissions run exactly one simulation and return results byte-identical
to a direct :func:`repro.api.run_experiment` call; a warm resubmission is
answered from the read-through store without touching the runner; and a
server killed with a queued backlog resumes it after restart.

All servers bind port 0 (ephemeral) and run one in-process worker, so
the suite is deterministic and leaves no stray processes.
"""

import json
import socket
import threading

import pytest

from repro.api import ExperimentSpec, SimulationResult, run_experiment
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

SPEC = ExperimentSpec("gzip", "ICR-P-PS(S)", n_instructions=5000)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        port=0, workers=1, queue_dir=tmp_path / "queue"
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestSingleJob:
    def test_submit_wait_result_matches_direct(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            assert client.health()
            served = client.run(SPEC, timeout=120)
        direct = run_experiment(SPEC)
        assert served.to_dict() == direct.to_dict()

    def test_job_endpoint_reports_lifecycle(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            submitted = client.submit(SPEC)
            assert submitted["job"]["id"] == SPEC.key()
            assert submitted["submission"] == "queued"
            payload = client.wait(SPEC.key(), timeout=120)
            assert payload["job"]["state"] == "done"
            assert payload["job"]["attempts"] == 1
            assert payload["result"] is not None

    def test_result_endpoint_serves_cached_key(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            result = client.result(SPEC.key())
            assert result.to_dict() == run_experiment(SPEC).to_dict()

    def test_timed_job_finishes_on_the_execution_thread(self, tmp_path):
        """The per-job timeout works off the main thread."""
        with ServiceThread(_config(tmp_path, timeout=30)) as st:
            client = ServiceClient(port=st.port)
            client.submit(SPEC)
            payload = client.wait(SPEC.key(), timeout=120)
            assert payload["job"]["state"] == "done"
            served = client.result(SPEC.key())
        assert served.to_dict() == run_experiment(SPEC).to_dict()

    def test_unknown_result_key_is_404(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client.result("0" * 32)
            assert exc_info.value.status == 404


class TestDedupAndCache:
    def test_concurrent_identical_submissions_run_once(self, tmp_path):
        """The headline acceptance test: N clients, one simulation."""
        n = 6
        with ServiceThread(_config(tmp_path)) as st:
            results = [None] * n
            errors = []

            def submit_and_wait(i):
                try:
                    client = ServiceClient(port=st.port)
                    results[i] = client.run(SPEC, timeout=120)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit_and_wait, args=(i,))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            telemetry = ServiceClient(port=st.port).telemetry()

        assert not errors
        direct = run_experiment(SPEC)
        for result in results:
            assert result is not None
            assert result.to_dict() == direct.to_dict()
        # Exactly one simulation ran; every other submission either
        # deduped onto it or (if it landed after completion) hit the
        # result store.  Nothing ran twice.
        assert telemetry["runner"]["simulated"] == 1
        assert telemetry["submissions"] == n
        assert (
            telemetry["dedup_hits"] + telemetry["cache_served"] == n - 1
        )

    def test_warm_resubmission_skips_the_runner(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            before = client.telemetry()["runner"]["simulated"]
            resubmitted = client.submit(SPEC)
            after = client.telemetry()
            assert resubmitted["submission"] == "cached"
            assert "result" in resubmitted  # answered inline
            assert after["runner"]["simulated"] == before
            assert after["cache_served"] >= 1

    def test_distinct_specs_both_run(self, tmp_path):
        other = ExperimentSpec("gzip", "BaseP", n_instructions=5000)
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            a = client.run(SPEC, timeout=120)
            b = client.run(other, timeout=120)
            telemetry = client.telemetry()
        assert a.scheme != b.scheme
        assert telemetry["runner"]["simulated"] == 2

    def test_disk_cache_survives_server_restart(self, tmp_path):
        """A new server answers from the shared disk cache, no rerun."""
        with ServiceThread(_config(tmp_path)) as st:
            ServiceClient(port=st.port).run(SPEC, timeout=120)
        with ServiceThread(
            _config(tmp_path, queue_dir=tmp_path / "queue2")
        ) as st:
            client = ServiceClient(port=st.port)
            submitted = client.submit(SPEC)
            assert submitted["submission"] == "cached"
            assert client.telemetry()["runner"]["simulated"] == 0


class TestCrashRecovery:
    def test_killed_server_resumes_queued_backlog(self, tmp_path):
        config = _config(tmp_path)
        # Phase 1: a server whose execution lane never starts — it
        # accepts and persists jobs but cannot run them, which models a
        # process killed with a backlog.
        with ServiceThread(config, start_execution=False) as st:
            client = ServiceClient(port=st.port)
            submitted = client.submit(SPEC)
            assert submitted["job"]["state"] == "queued"
        # Phase 2: a fresh server over the same queue directory must
        # resume and drain the backlog without a resubmission.
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            payload = client.wait(SPEC.key(), timeout=120)
            assert payload["job"]["state"] == "done"
        assert payload["result"] is not None
        direct = run_experiment(SPEC)
        assert payload["result"] == direct.to_dict()


class TestEvents:
    def test_sse_stream_replays_full_lifecycle(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            events = list(client.events(SPEC.key(), timeout=30))
        kinds = [e["event"] for e in events]
        assert kinds == ["queued", "started", "done"]
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_events_for_unknown_job_is_404(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                list(client.events("not-a-job", timeout=10))
            assert exc_info.value.status == 404


class TestErrors:
    def test_unknown_scheme_is_http_400_with_catalog(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            bad = SPEC.to_dict()
            bad["scheme"] = "no-such-scheme"
            with pytest.raises(ServiceError) as exc_info:
                client._request("POST", "/v1/jobs", {"spec": bad})
        assert exc_info.value.status == 400
        assert "no-such-scheme" in exc_info.value.message
        assert "ICR-P-PS(S)" in exc_info.value.message  # catalog listed

    def test_malformed_body_is_400(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client._request("POST", "/v1/jobs", {"nope": 1})
            assert exc_info.value.status == 400

    def test_unknown_endpoint_is_404(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client._request("GET", "/v1/bogus")
            assert exc_info.value.status == 404

    def test_unknown_job_is_404(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client.job("not-a-job")
            assert exc_info.value.status == 404


class TestCampaigns:
    CAMPAIGN = {
        "benchmarks": ["gzip"],
        "schemes": ["BaseP", "ICR-P-PS(S)"],
        "trials": 4,
        "min_trials": 2,
        "batch_size": 2,
        "n_instructions": 3000,
    }

    def test_campaign_runs_and_reports(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            submitted = client.submit_campaign(self.CAMPAIGN)
            job_id = submitted["job"]["id"]
            assert job_id.startswith("campaign-")
            payload = client.wait(job_id, timeout=300)
            assert payload["job"]["state"] == "done"
            report = payload["report"]
            assert report["complete"] is True
            assert len(report["cells"]) == 2
            telemetry = client.telemetry()
            assert job_id in telemetry["campaigns"]

    def test_identical_campaign_resubmission_is_cached(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            job_id = client.submit_campaign(self.CAMPAIGN)["job"]["id"]
            client.wait(job_id, timeout=300)
            again = client.submit_campaign(self.CAMPAIGN)
            assert again["submission"] == "cached"
            assert again["job"]["id"] == job_id

    def test_bad_campaign_is_400(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client.submit_campaign({**self.CAMPAIGN, "schemes": ["nope"]})
            assert exc_info.value.status == 400
            with pytest.raises(ServiceError) as exc_info:
                client.submit_campaign({**self.CAMPAIGN, "bogus_field": 1})
            assert exc_info.value.status == 400


class TestIntrospection:
    def test_schemes_endpoint_mirrors_registry(self, tmp_path):
        from repro.api import list_schemes

        with ServiceThread(_config(tmp_path)) as st:
            served = ServiceClient(port=st.port).schemes()
        assert [s["name"] for s in served] == list(list_schemes())
        by_name = {s["name"]: s for s in served}
        assert by_name["ICR-P-PS(S)"]["replicates"] is True
        assert by_name["BaseP"]["kind"] == "base"

    def test_telemetry_shape(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            telemetry = client.telemetry()
        for key in (
            "uptime", "queue_depth", "jobs", "submissions", "dedup_hits",
            "cache_served", "store", "runner", "backend_latency",
        ):
            assert key in telemetry
        assert telemetry["jobs"]["done"] == 1
        latency = telemetry["backend_latency"]["object"]
        assert latency["count"] == 1
        assert sum(latency["histogram"]["counts"]) == 1


class TestReviewHardening:
    """Regression tests for the security/robustness review: hostile wire
    input, resume fault isolation, bounded retention, and recovery when
    a finished job's result has been evicted from every cache tier."""

    def test_enum_gadget_payload_is_400(self, tmp_path):
        """The __enum__ wire tag must not import-and-call outside repro."""
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            bad = SPEC.to_dict()
            bad["scheme_kwargs"] = {
                "victim_policy": {"__enum__": "os:system", "value": "true"}
            }
            with pytest.raises(ServiceError) as exc_info:
                client._request("POST", "/v1/jobs", {"spec": bad})
            assert exc_info.value.status == 400

    def test_negative_content_length_is_400(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: t\r\nContent-Length: -5\r\n\r\n"
                )
                reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_non_integer_since_is_400(self, tmp_path):
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as exc_info:
                client._request("GET", "/v1/jobs/x/events?since=abc")
            assert exc_info.value.status == 400

    def test_stale_persisted_record_cannot_brick_boot(self, tmp_path):
        """A persisted payload that no longer validates fails that one
        job on resume instead of preventing the server from starting."""
        with ServiceThread(_config(tmp_path), start_execution=False) as st:
            ServiceClient(port=st.port).submit(SPEC)
        # Rot the record the way a scheme rename would: it still parses
        # as a JobRecord, but its spec no longer validates.
        path = tmp_path / "queue" / f"{SPEC.key()}.json"
        record = json.loads(path.read_text())
        record["payload"]["spec"]["scheme"] = "no-such-scheme"
        path.write_text(json.dumps(record))
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            assert client.health()
            job = client.job(SPEC.key())["job"]
            assert job["state"] == "failed"
            assert "no-such-scheme" in job["error"]

    def test_terminal_retention_is_bounded_and_safe(self, tmp_path):
        other = ExperimentSpec("gzip", "BaseP", n_instructions=5000)
        config = _config(
            tmp_path, max_terminal_jobs=1, max_latency_samples=1
        )
        with ServiceThread(config) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            client.run(other, timeout=120)
            assert len(client.jobs()) == 1  # oldest record expired
            telemetry = client.telemetry()
            # Expiring a done record is safe: the spec is still answered
            # from the content-addressed cache without re-running.
            resubmitted = client.submit(SPEC)
            assert resubmitted["submission"] == "cached"
            assert "result" in resubmitted
            assert telemetry["runner"]["simulated"] == 2
            assert telemetry["backend_latency"]["object"]["count"] == 1

    def test_evicted_result_triggers_rerun_not_null(self, tmp_path):
        """A done job whose result vanished from every tier re-runs on
        resubmission instead of answering "cached" with a null result."""
        with ServiceThread(_config(tmp_path)) as st:
            client = ServiceClient(port=st.port)
            client.run(SPEC, timeout=120)
            assert st.service is not None
            # The runner keeps no results of its own: the store is its.
            assert st.service.runner.store is st.service.store
            for shard in st.service.store._shards:
                with shard.lock:
                    shard.entries.clear()
            for file in (tmp_path / "cache").rglob("*.json"):
                file.unlink()
            resubmitted = client.submit(SPEC)
            assert resubmitted["submission"] == "queued"
            payload = client.wait(SPEC.key(), timeout=120)
            assert payload["result"] is not None
            assert client.telemetry()["runner"]["simulated"] == 2


def _result_maps(obj) -> dict[str, int]:
    """Sizes of *obj*'s attributes that map keys to simulation results."""
    return {
        name: len(value)
        for name, value in vars(obj).items()
        if isinstance(value, dict)
        and any(isinstance(v, SimulationResult) for v in value.values())
    }


class TestBoundedMemory:
    def test_result_counts_stay_within_the_store(self, tmp_path):
        """A long-lived server holds no more results than its store's
        capacity, however many distinct specs pass through it."""
        capacity = 4
        config = _config(
            tmp_path, store_shards=1, store_capacity_per_shard=capacity
        )
        specs = [
            ExperimentSpec(
                "gzip", "BaseP", n_instructions=2000,
                error_rate=1e-3, error_seed=seed,
            )
            for seed in range(20)
        ]
        with ServiceThread(config) as st:
            client = ServiceClient(port=st.port)
            for spec in specs:
                client.run(spec, timeout=120)
            assert st.service is not None
            runner = st.service.runner
            assert client.telemetry()["runner"]["simulated"] == len(specs)
            assert st.service.store.stats()["entries"] <= capacity
            for name, count in _result_maps(runner).items():
                assert count <= capacity, f"runner.{name} holds {count} results"
            assert runner.store.stats()["entries"] <= capacity
