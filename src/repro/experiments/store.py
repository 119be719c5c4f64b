"""Content-addressed result store: ``RunResult``\\ s keyed by spec digest.

Each entry holds both the spec (for integrity checking and offline
inspection) and the result, serialized as one JSON document.  The store is
what lets fig9/10/13/14 share one simulated matrix, and what makes a
repeated ``venice-sim matrix --cache DIR`` invocation perform zero new
simulations.

The *layout* of the entries on disk is pluggable (:class:`StoreBackend`):

* ``flat`` -- one ``<digest>.json`` file per entry at the top of the store
  directory (the historical layout; still the default for new stores);
* ``sharded`` -- entries under ``objects/<digest[:2]>/``, so million-entry
  stores never put a million files in one directory;
* ``sqlite`` -- a single ``store.sqlite3`` database in WAL mode with
  busy-timeout retry, safe for many concurrent writer processes (the
  work-queue workers of :mod:`repro.experiments.worker`).

:class:`ResultStore` is the only consumer-facing class: it owns the JSON
schema, the digest integrity check, and the hit/miss/write counters, and
delegates raw text storage to the backend.  :meth:`ResultStore.verify`
makes the store self-healing: entries whose content no longer matches
their digest key are *quarantined* (moved aside, never served) instead of
poisoning every later sweep.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.atomic import atomic_write_text
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.spec import RunSpec
from repro.metrics.collector import RunResult

_SCHEMA_VERSION = 1

#: Recognised backend names, in the order ``venice-sim list`` prints them.
BACKEND_NAMES = ("flat", "sharded", "sqlite")

_SQLITE_FILENAME = "store.sqlite3"
_SHARD_DIRNAME = "objects"
_QUARANTINE_DIRNAME = "quarantine"

#: How many times a SQLite write is retried when another process holds the
#: write lock past the busy timeout (each attempt already waits up to
#: ``_SQLITE_BUSY_TIMEOUT_MS`` inside SQLite itself).
_SQLITE_WRITE_RETRIES = 8
_SQLITE_BUSY_TIMEOUT_MS = 5_000


class StoreBackend(ABC):
    """Raw text storage keyed by spec digest, one layout per subclass.

    Backends know nothing about specs or results: they map a hex digest to
    a JSON text blob durably and atomically (a reader never observes a torn
    entry, even with concurrent writers on a shared filesystem).  The
    quarantine area is part of the interface so :meth:`ResultStore.verify`
    can move a corrupt entry aside regardless of layout.
    """

    #: Canonical backend name (``flat`` / ``sharded`` / ``sqlite``).
    name: str = ""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    @abstractmethod
    def read(self, digest: str) -> Optional[str]:
        """Return the entry text for ``digest``, or ``None`` when absent."""

    @abstractmethod
    def write(self, digest: str, text: str) -> None:
        """Durably store ``text`` under ``digest`` (atomic replace)."""

    @abstractmethod
    def delete(self, digest: str) -> None:
        """Remove the entry for ``digest`` (no-op when absent)."""

    @abstractmethod
    def digests(self) -> Iterator[str]:
        """Iterate the digests of every stored entry (sorted)."""

    @abstractmethod
    def bytes_used(self) -> int:
        """Total payload bytes currently stored."""

    @abstractmethod
    def quarantine(self, digest: str) -> None:
        """Move the entry for ``digest`` into the quarantine area.

        A quarantined entry is never served by :meth:`read` again, but its
        bytes are preserved for post-mortem inspection until
        :meth:`ResultStore.gc` purges them.
        """

    @abstractmethod
    def quarantined(self) -> List[str]:
        """Digests currently held in the quarantine area (sorted)."""

    @abstractmethod
    def purge_quarantine(self) -> int:
        """Drop all quarantined entries; return bytes reclaimed."""

    @abstractmethod
    def compact(self) -> int:
        """Rewrite storage in its most compact form; return bytes saved."""

    def location(self, digest: str) -> str:
        """Human-readable location of an entry (diagnostics only)."""
        return f"{self.directory}[{digest[:12]}]"

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())


def _purge_tree(root: Path) -> int:
    """Delete every file under ``root``; return bytes reclaimed."""
    reclaimed = 0
    if not root.is_dir():
        return 0
    for path in sorted(root.rglob("*")):
        if path.is_file():
            reclaimed += path.stat().st_size
            path.unlink()
    for path in sorted(root.rglob("*"), reverse=True):
        if path.is_dir():
            path.rmdir()
    return reclaimed


class _FileBackend(StoreBackend):
    """Shared machinery for the two file-per-entry layouts."""

    def _path(self, digest: str) -> Path:
        raise NotImplementedError

    def _entry_paths(self) -> List[Path]:
        raise NotImplementedError

    def read(self, digest: str) -> Optional[str]:
        path = self._path(digest)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    def write(self, digest: str, text: str) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, text)

    def delete(self, digest: str) -> None:
        path = self._path(digest)
        if path.exists():
            path.unlink()

    def digests(self) -> Iterator[str]:
        for path in self._entry_paths():
            yield path.stem

    def bytes_used(self) -> int:
        return sum(path.stat().st_size for path in self._entry_paths())

    def quarantine(self, digest: str) -> None:
        path = self._path(digest)
        if not path.exists():
            return
        target_dir = self.directory / _QUARANTINE_DIRNAME
        target_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, target_dir / f"{digest}.json")

    def quarantined(self) -> List[str]:
        target_dir = self.directory / _QUARANTINE_DIRNAME
        if not target_dir.is_dir():
            return []
        return sorted(path.stem for path in target_dir.glob("*.json"))

    def purge_quarantine(self) -> int:
        return _purge_tree(self.directory / _QUARANTINE_DIRNAME)

    def compact(self) -> int:
        """Re-serialize every parseable entry in minified JSON form."""
        saved = 0
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # verify/repair owns corrupt entries, not compact
            compacted = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            before = path.stat().st_size
            if len(compacted.encode("utf-8")) < before:
                atomic_write_text(path, compacted)
                saved += before - path.stat().st_size
        return saved

    def location(self, digest: str) -> str:
        return str(self._path(digest))


class FlatDirBackend(_FileBackend):
    """The historical layout: ``<store>/<digest>.json``."""

    name = "flat"

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def _entry_paths(self) -> List[Path]:
        return sorted(self.directory.glob("*.json"))


class ShardedBackend(_FileBackend):
    """Entries fanned out as ``<store>/objects/<digest[:2]>/<digest>.json``.

    256-way fan-out keeps directory sizes flat even for stores holding the
    results of million-cell fleet sweeps, where a single flat directory
    makes every lookup and listing progressively slower.
    """

    name = "sharded"

    def __init__(self, directory: Path) -> None:
        super().__init__(directory)
        (directory / _SHARD_DIRNAME).mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / _SHARD_DIRNAME / digest[:2] / f"{digest}.json"

    def _entry_paths(self) -> List[Path]:
        root = self.directory / _SHARD_DIRNAME
        return sorted(root.glob("*/*.json"))

    def compact(self) -> int:
        saved = super().compact()
        # Shard directories emptied by deletions are themselves removable.
        root = self.directory / _SHARD_DIRNAME
        for shard in sorted(root.glob("*")):
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()
        return saved


class SqliteBackend(StoreBackend):
    """Single-file SQLite layout with concurrent-writer safety.

    WAL journaling lets readers proceed while a writer commits; the busy
    timeout plus a bounded retry loop absorbs write-lock contention between
    worker processes on one host.  Every write is a single upsert
    transaction, so a reader (or a crash) can never observe a torn entry.
    """

    name = "sqlite"

    def __init__(self, directory: Path) -> None:
        super().__init__(directory)
        self.path = directory / _SQLITE_FILENAME
        with self._connect() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " digest TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL,"
                " quarantined INTEGER NOT NULL DEFAULT 0)"
            )
        self._conn: Optional[sqlite3.Connection] = None

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=_SQLITE_BUSY_TIMEOUT_MS / 1000.0
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={_SQLITE_BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def _execute_with_retry(self, sql: str, params=()) -> None:
        """Run one write statement, retrying past transient lock errors."""
        for attempt in range(_SQLITE_WRITE_RETRIES):
            try:
                with self._connection() as conn:
                    conn.execute(sql, params)
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) and "busy" not in str(error):
                    raise
                # Reset the connection: a writer that died mid-transaction
                # can leave this handle wedged on some filesystems.
                self.close()
                time.sleep(0.05 * (attempt + 1))
        raise SimulationError(
            f"sqlite store {self.path} stayed locked after "
            f"{_SQLITE_WRITE_RETRIES} retries"
        )

    def close(self) -> None:
        """Drop the cached connection (safe to call repeatedly)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def read(self, digest: str) -> Optional[str]:
        row = self._connection().execute(
            "SELECT payload FROM entries WHERE digest=? AND quarantined=0",
            (digest,),
        ).fetchone()
        return row[0] if row else None

    def write(self, digest: str, text: str) -> None:
        self._execute_with_retry(
            "INSERT INTO entries (digest, payload, quarantined) "
            "VALUES (?, ?, 0) ON CONFLICT(digest) DO UPDATE SET "
            "payload=excluded.payload, quarantined=0",
            (digest, text),
        )

    def delete(self, digest: str) -> None:
        self._execute_with_retry(
            "DELETE FROM entries WHERE digest=?", (digest,)
        )

    def digests(self) -> Iterator[str]:
        rows = self._connection().execute(
            "SELECT digest FROM entries WHERE quarantined=0 ORDER BY digest"
        ).fetchall()
        for (digest,) in rows:
            yield digest

    def bytes_used(self) -> int:
        row = self._connection().execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM entries "
            "WHERE quarantined=0"
        ).fetchone()
        return int(row[0])

    def quarantine(self, digest: str) -> None:
        self._execute_with_retry(
            "UPDATE entries SET quarantined=1 WHERE digest=?", (digest,)
        )

    def quarantined(self) -> List[str]:
        rows = self._connection().execute(
            "SELECT digest FROM entries WHERE quarantined=1 ORDER BY digest"
        ).fetchall()
        return [digest for (digest,) in rows]

    def purge_quarantine(self) -> int:
        row = self._connection().execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM entries "
            "WHERE quarantined=1"
        ).fetchone()
        self._execute_with_retry("DELETE FROM entries WHERE quarantined=1")
        return int(row[0])

    def compact(self) -> int:
        """VACUUM the database file back down after deletions."""
        before = self.path.stat().st_size if self.path.exists() else 0
        # VACUUM cannot run inside a transaction; use a dedicated
        # autocommit connection.
        self.close()
        conn = self._connect()
        try:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
        finally:
            conn.close()
        after = self.path.stat().st_size if self.path.exists() else 0
        return max(0, before - after)

    def location(self, digest: str) -> str:
        return f"{self.path}[{digest[:12]}]"

    def __len__(self) -> int:
        row = self._connection().execute(
            "SELECT COUNT(*) FROM entries WHERE quarantined=0"
        ).fetchone()
        return int(row[0])


_BACKENDS = {
    FlatDirBackend.name: FlatDirBackend,
    ShardedBackend.name: ShardedBackend,
    SqliteBackend.name: SqliteBackend,
}


def detect_backend(directory: Union[str, Path]) -> str:
    """Infer the layout an existing store directory uses.

    A ``store.sqlite3`` file marks a SQLite store, an ``objects/``
    directory marks a sharded store, anything else (including a fresh
    empty directory) is the flat layout -- so plain ``ResultStore(DIR)``
    keeps reading every store any prior version wrote.
    """
    directory = Path(directory)
    if (directory / _SQLITE_FILENAME).exists():
        return SqliteBackend.name
    if (directory / _SHARD_DIRNAME).is_dir():
        return ShardedBackend.name
    return FlatDirBackend.name


class ResultStore:
    """Persist run results under a directory, addressed by spec content.

    ``hits`` / ``misses`` / ``writes`` counters make cache behaviour
    observable (the acceptance tests assert a warm store serves everything).
    A small in-memory layer avoids re-parsing JSON for repeat lookups within
    one process.

    ``backend`` picks the on-disk layout (``flat`` / ``sharded`` /
    ``sqlite``); the default ``auto`` detects what an existing directory
    already uses and falls back to ``flat`` for new stores.  Opening a
    store with a backend that contradicts the directory's existing layout
    raises, so two processes can never split one store across layouts.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        backend: str = "auto",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        detected = detect_backend(self.directory)
        if backend == "auto":
            backend = detected
        elif backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown store backend {backend!r} "
                f"(choose from {', '.join(BACKEND_NAMES)})"
            )
        elif backend != detected and len(self._probe(detected)) > 0:
            raise ConfigurationError(
                f"store {self.directory} already uses the {detected!r} "
                f"layout; refusing to open it as {backend!r}"
            )
        self.backend: StoreBackend = _BACKENDS[backend](self.directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._memory: Dict[str, RunResult] = {}

    def _probe(self, backend_name: str) -> StoreBackend:
        return _BACKENDS[backend_name](self.directory)

    @property
    def backend_name(self) -> str:
        """The active layout's canonical name."""
        return self.backend.name

    @property
    def checkpoint_dir(self) -> Path:
        """Where the warm-up device checkpoints of this store's runs live."""
        return self.directory / "checkpoints"

    def path_for(self, spec: RunSpec) -> Path:
        """Filesystem path of a spec's entry (file backends only).

        The SQLite backend has no per-entry file; callers that need a
        diagnostic string should prefer :meth:`StoreBackend.location`.
        """
        if isinstance(self.backend, _FileBackend):
            return self.backend._path(spec.digest)
        return Path(self.backend.location(spec.digest))

    # -- entry (de)serialization ---------------------------------------- #

    def _decode(self, digest: str, text: str) -> RunResult:
        """Parse one entry, enforcing schema and content identity."""
        name = self.backend.location(digest)
        try:
            payload = json.loads(text)
            schema = payload.get("schema")
            if schema != _SCHEMA_VERSION:
                raise SimulationError(
                    f"store entry {name} has schema {schema!r}, this "
                    f"version writes {_SCHEMA_VERSION}; delete the cache "
                    "directory or run `venice-sim store verify --repair`"
                )
            # Compare content identities rather than raw spec dicts: the
            # digest excludes trace_path, so a result cached from one trace
            # location stays valid when the same file is read from another.
            stored_spec = RunSpec.from_dict(payload["spec"])
            if stored_spec.digest != digest:
                raise SimulationError(
                    f"store entry {name} does not match its digest key; "
                    "run `venice-sim store verify --repair`"
                )
            return RunResult.from_dict(payload["result"])
        except SimulationError:
            raise
        except (ValueError, KeyError, TypeError, ConfigurationError) as error:
            raise SimulationError(
                f"store entry {name} is corrupt ({error}); run "
                "`venice-sim store verify --repair`"
            )

    def _encode(self, spec: RunSpec, result: RunResult) -> str:
        payload = {
            "schema": _SCHEMA_VERSION,
            "digest": spec.digest,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        return json.dumps(payload, indent=1)

    # -- the cache interface -------------------------------------------- #

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        digest = spec.digest
        cached = self._memory.get(digest)
        if cached is not None:
            self.hits += 1
            return cached
        text = self.backend.read(digest)
        if text is None:
            self.misses += 1
            return None
        result = self._decode(digest, text)
        self._memory[digest] = result
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult) -> Path:
        digest = spec.digest
        self.backend.write(digest, self._encode(spec, result))
        self._memory[digest] = result
        self.writes += 1
        return self.path_for(spec)

    def __contains__(self, spec: RunSpec) -> bool:
        return (
            spec.digest in self._memory
            or self.backend.read(spec.digest) is not None
        )

    def __len__(self) -> int:
        return len(self.backend)

    # -- maintenance ----------------------------------------------------- #

    def verify(self, repair: bool = False) -> Dict[str, object]:
        """Check every entry's integrity; optionally quarantine failures.

        An entry fails when its JSON does not parse, its schema is foreign,
        its stored spec's recomputed content digest mismatches the digest
        key it is filed under, or its result payload does not rebuild.
        With ``repair=True`` failing entries are moved to the quarantine
        area (they are re-simulated on the next sweep, exactly like cache
        misses); without it they are only reported.  Returns a report dict
        with ``checked`` / ``ok`` / ``corrupt`` / ``quarantined`` keys.
        """
        corrupt: List[Dict[str, str]] = []
        checked = 0
        for digest in list(self.backend.digests()):
            checked += 1
            text = self.backend.read(digest)
            if text is None:  # pragma: no cover - raced deletion
                continue
            try:
                self._decode(digest, text)
            except SimulationError as error:
                corrupt.append({"digest": digest, "error": str(error)})
                self._memory.pop(digest, None)
                if repair:
                    self.backend.quarantine(digest)
        return {
            "backend": self.backend_name,
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "quarantined": len(corrupt) if repair else 0,
        }

    def gc(self) -> Dict[str, object]:
        """Drop quarantined entries and stale temp files; report bytes freed.

        Also sweeps write-then-rename temp files older than an hour --
        debris a SIGKILLed writer can leave behind -- while leaving fresh
        ones alone (they may belong to a live writer mid-rename).
        """
        reclaimed = self.backend.purge_quarantine()
        removed_tmp = 0
        cutoff = time.time() - 3600.0
        for tmp in sorted(self.directory.rglob("*.tmp")):
            try:
                if tmp.stat().st_mtime < cutoff:
                    reclaimed += tmp.stat().st_size
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:  # pragma: no cover - raced deletion
                continue
        return {
            "backend": self.backend_name,
            "reclaimed_bytes": reclaimed,
            "temp_files_removed": removed_tmp,
        }

    def compact(self) -> Dict[str, object]:
        """Rewrite storage compactly (minify JSON / VACUUM the database)."""
        saved = self.backend.compact()
        return {"backend": self.backend_name, "saved_bytes": saved}

    def counters(self) -> Dict[str, int]:
        """Just this session's hit/miss/write counters -- no disk access.

        :meth:`stats` walks the backend (entry counts, byte totals), which
        is the right tool for ``venice-sim store stats`` but too heavy for
        a polling caller.  The service control plane samples this on every
        ``/health`` request and after every job to report how much work the
        content-addressed cache absorbed.
        """
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    def stats(self) -> Dict[str, object]:
        """Observability snapshot: on-disk contents plus session counters.

        Reports entry counts and byte totals (device checkpoints live
        under :attr:`checkpoint_dir`, written by
        :class:`~repro.sim.checkpoint.CheckpointStore` when warm-up
        amortization is on) alongside this process's hit/miss/write
        counters.
        """
        checkpoint_files = (
            sorted(self.checkpoint_dir.glob("*.json"))
            if self.checkpoint_dir.is_dir()
            else []
        )
        return {
            "directory": str(self.directory),
            "backend": self.backend_name,
            "entries": len(self.backend),
            "bytes": self.backend.bytes_used(),
            "quarantined": len(self.backend.quarantined()),
            "checkpoints": len(checkpoint_files),
            "checkpoint_bytes": sum(
                path.stat().st_size for path in checkpoint_files
            ),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }
