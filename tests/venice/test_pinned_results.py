"""Pinned Venice ``RunResult`` hashes under heavy scout contention.

These cells exercise the fabric's retry path hard: the figure matrix's
overload scale keeps most scouts failing and parked, and the faulted cell
keeps them parked across a link failure and a router down/up window.  The
hashes were taken before the scout walk and the retry loop were optimised;
any change to a routing decision, an LFSR advance or the retry order moves
them.
"""

import hashlib
import json

import pytest

from repro.experiments.executor import execute_specs
from repro.experiments.spec import ExperimentScale, make_spec

#: The ``fig-matrix`` benchmark's per-cell scale (figure overload pressure).
SCALE = ExperimentScale(requests=300, requests_per_mix_constituent=100, seed=4)

FAULTS = "100us link (3,3)-(3,4) down; 200us router (4,4) down; 210us router (4,4) up"

PINNED = {
    ("YCSB_B", None): "ef024f2a78fcafbde80046ed8c7513102220d71ab176f8df2fa50554e39b7c74",
    ("src2_1", None): "56306ca9ceefe7bffb4548089038de6f54c06f9413cdd73279e955cb2db351f7",
    ("YCSB_B", FAULTS): "f9910e81b309ad560177d72f4ff5abf21148c1ccbb8fa8f27c64fa1919d7a6e9",
}


@pytest.mark.parametrize("workload, faults", sorted(PINNED, key=str))
def test_contended_venice_result_matches_pin(workload, faults):
    spec = make_spec("venice", "performance-optimized", workload, SCALE, faults=faults)
    result = execute_specs([spec])[spec]
    payload = json.dumps(result.to_dict(), sort_keys=False)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED[(workload, faults)]
