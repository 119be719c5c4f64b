"""Two writers publishing one file never share a temp file.

Each case runs writer A; at the moment A renames its temp file into place,
a patched ``os.replace`` first runs writer B to completion on the same
target.  With a temp name shared by both writers, B's rename consumes A's
temp file and A's rename fails; with one temp file per writer, both renames
succeed and A's content lands last.  The interleaving is deterministic: both
writers run in one thread, which is the worst case (same pid, same thread
scheduling) for a temp name derived from the process alone.
"""

import json
import os

import pytest

from repro.cli import main
from repro.experiments.store import ResultStore
from repro.sim.checkpoint import CheckpointStore

DIGEST = "ab" * 32
MSR_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "workloads", "data", "msr_tiny.csv"
)


def _interleave(monkeypatch, write_a, write_b):
    """Run ``write_a``; inside its first rename, run ``write_b`` whole."""
    real_replace = os.replace
    renames = []

    def replace(source, target):
        renames.append(str(source))
        if len(renames) == 1:
            write_b()
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    write_a()
    assert len(renames) == 2
    assert renames[0] != renames[1]  # one temp file per writer


def _no_temp_files(directory):
    return not [path for path in directory.rglob("*") if path.suffix == ".tmp"]


def test_result_store_writers_of_one_digest_interleave(tmp_path, monkeypatch):
    backend = ResultStore(tmp_path / "store").backend
    _interleave(
        monkeypatch,
        lambda: backend.write(DIGEST, '{"writer": "a"}'),
        lambda: backend.write(DIGEST, '{"writer": "b"}'),
    )
    assert backend.read(DIGEST) == '{"writer": "a"}'
    assert _no_temp_files(tmp_path)


def test_checkpoint_writers_of_one_digest_interleave(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path / "checkpoints")
    _interleave(
        monkeypatch,
        lambda: store.put(DIGEST, {"writer": "a"}),
        lambda: store.put(DIGEST, {"writer": "b"}),
    )
    payload = json.loads(store.path_for(DIGEST).read_text(encoding="utf-8"))
    assert payload == {"digest": DIGEST, "state": {"writer": "a"}}
    assert _no_temp_files(tmp_path)


def test_trace_convert_writers_of_one_target_interleave(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "canonical.csv"
    _interleave(
        monkeypatch,
        lambda: main(["trace", "convert", MSR_FIXTURE, str(out)]),
        lambda: main(["trace", "convert", MSR_FIXTURE, str(out), "--limit", "3"]),
    )
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) > 4  # writer A's full conversion, not B's three rows
    assert _no_temp_files(tmp_path)


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    backend = ResultStore(tmp_path / "store").backend
    backend.write(DIGEST, '{"writer": "old"}')

    def fail(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        backend.write(DIGEST, '{"writer": "new"}')
    assert backend.read(DIGEST) == '{"writer": "old"}'
    assert _no_temp_files(tmp_path)
