"""Spec clauses: the byte-identity pins and the per-clause contract.

Every spec clause (a grammar string carried by :class:`RunSpec`) must be
canonicalised on construction, join the digest, and be a strict no-op when
empty.  The pins below were taken before the clauses were gathered into
one table; any drift means a refactor moved a digest, a store entry, or a
persisted job record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.spec import (
    SPEC_CLAUSES,
    ExperimentScale,
    RunSpec,
    make_spec,
)
from repro.service.schema import job_from_payload

SCALE = ExperimentScale(requests=120, requests_per_mix_constituent=50, seed=7)

#: One raw (non-canonical) value per clause: clause order, spacing and
#: number formatting all differ from the canonical form.
RAW_CLAUSES = {
    "faults": "0 link (0,1)-(0,2)  down",
    "fleet": "member 1/2;  tenants 4; placement round-robin; burst 1x3",
    "warmup": "steps 200; fill 0.40",
    "early_stop": "min 240; patience 2; tolerance 0.030; window 60",
    "qos": "wfq:1, 2, 1, 1",
}

FAULTS = "0 link (0,1)-(0,2) down"
WARMUP = "fill 0.4; steps 200"
EARLY_STOP = "window 60; tolerance 0.03; patience 2; min 240"

PINNED_FULL_DIGEST = (
    "49110addbdf3af8030d28d2edc5fb0769df225d8c8fde055485ba3b951d0d4a3"
)
PINNED_FULL_CHECKPOINT_DIGEST = (
    "df804e23098da48e37f774c8f490a2d9bc6c9cbf592da9520b678d81ec0ec75e"
)
PINNED_FULL_TO_DICT_SHA = (
    "82da42150526e91a3e751103fd63ef75dfc1c91fe19563a13ba2c132edec03f0"
)
PINNED_FLEET_RECORD_SHA = (
    "47734c2b2f188e51647b8b2179a99d4c9e39d292d4c95ef72d2ebc4119727de9"
)
PINNED_SWEEP_JOB_ID = (
    "c13e4944dc3912b23391199de050b718d95d32c7e6a55e64e9b91ab941456cf3"
)


def _plain() -> RunSpec:
    return make_spec("venice", "performance-optimized", "hm_0", SCALE)


def _full() -> RunSpec:
    return make_spec(
        "venice", "performance-optimized", "hm_0", SCALE, **RAW_CLAUSES
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_five_clause_spec_matches_the_pins():
    spec = _full()
    assert spec.digest == PINNED_FULL_DIGEST
    assert spec.checkpoint_digest == PINNED_FULL_CHECKPOINT_DIGEST
    assert _sha(json.dumps(spec.to_dict(), indent=1)) == PINNED_FULL_TO_DICT_SHA


def test_fleet_job_record_matches_the_pin():
    job = job_from_payload({
        "kind": "fleet", "devices": 2, "tenants": 4, "requests": 60,
        "qos": "wfq:1,2,1,1", "burst": "1x3", "faults": FAULTS,
    })
    # The job table persists ``json.dumps(job.canonical)`` verbatim.
    assert _sha(json.dumps(job.canonical)) == PINNED_FLEET_RECORD_SHA


def test_sweep_job_id_matches_the_pin():
    job = job_from_payload({
        "kind": "sweep", "designs": ["venice", "baseline"],
        "workloads": ["hm_0"], "requests": 60,
        "faults": FAULTS, "warmup": WARMUP, "early_stop": EARLY_STOP,
    })
    assert job.job_id == PINNED_SWEEP_JOB_ID


def test_every_clause_has_a_sample():
    # A new clause needs only a raw sample here to be covered below.
    assert list(RAW_CLAUSES) == list(SPEC_CLAUSES)


@pytest.mark.parametrize("name", list(SPEC_CLAUSES))
def test_empty_clause_is_a_strict_no_op(name):
    plain = _plain()
    assert name not in plain.to_dict()
    assert replace(plain, **{name: ""}).digest == plain.digest


@pytest.mark.parametrize("name", list(SPEC_CLAUSES))
def test_clause_round_trips_through_to_dict(name):
    spec = _full()
    payload = spec.to_dict()
    assert payload[name] == getattr(spec, name)
    assert RunSpec.from_dict(payload) == spec
    assert RunSpec.from_dict(payload).to_dict() == payload


@pytest.mark.parametrize("name", list(SPEC_CLAUSES))
def test_clause_canonicalisation_is_idempotent(name):
    canonicalise = SPEC_CLAUSES[name]
    canonical = canonicalise(RAW_CLAUSES[name])
    assert canonical == getattr(_full(), name)
    assert canonicalise(canonical) == canonical
