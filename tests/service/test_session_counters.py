"""``/health`` session counters count store reads a job served, not re-reads.

A cold job simulates every cell and serves none from the store, so its
``cache_hits`` contribution is zero -- the fleet roll-up reduces the
results the job just produced rather than reading them back.
"""

from __future__ import annotations


def test_cold_fleet_job_reports_no_cache_hits(daemon):
    status, accepted = daemon.post_json(
        "/v1/runs",
        {
            "kind": "fleet",
            "design": "venice",
            "devices": 2,
            "tenants": 4,
            "requests": 40,
        },
    )
    assert status == 201
    record = daemon.wait_for(accepted["job_id"])
    assert record["state"] == "done"
    assert record["simulated"] == 2

    status, health = daemon.get("/health")
    assert status == 200
    assert health["session"]["simulations"] == 2
    assert health["session"]["cache_hits"] == 0
