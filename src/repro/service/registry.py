"""Persistent on-disk store of fitted strategies.

SELECT is the expensive stage of HDMM — minutes of optimization for a
workload that may then be served for years (the paper's Census SF1
workload changes once a decade).  The registry amortizes it across
processes: a strategy is fitted once, persisted, and every later process
(or machine sharing the directory) loads it serve-ready.

Layout — one JSON manifest plus one npz per strategy::

    <root>/manifest.json          # key → metadata (human-inspectable)
    <root>/<fingerprint>.npz      # structural config + arrays + solver state
    <root>/quarantine/            # corrupted entries, renamed aside

The npz carries the strategy's :mod:`structural config
<repro.linalg.serialize>` (JSON string under ``__config__``, ndarrays
split out by :func:`~repro.linalg.flatten_arrays`) *and*, for a union, the
state of its Gram solver
(:func:`~repro.core.solvers.export_gram_solver_state`: the block pair,
its factors, diagonal and relative Cholesky pivots) — so a loaded
strategy answers its first query without re-running the per-factor
Cholesky/eigendecomposition setup or the pair choice.
Solver states of older entries in other shapes are ignored on load; the
strategy re-factors on first use.  All payloads are float64-exact: a
reloaded strategy is bit-identical to the fitted one.

Keys are :func:`~repro.service.fingerprint.workload_fingerprint` values,
so any process that can *construct* the workload can find its strategy —
no shared naming convention required.

Durability and integrity
------------------------
A strategy that silently decodes to the wrong arrays serves wrong
answers with real privacy budget behind them, so every write is atomic
and every read is verified:

* **atomic writes** — npz and manifest are written to a temp file,
  flushed, ``fsync``'d, then ``os.replace``'d into place (with the
  directory fsync'd after), so a reader — or the next process after a
  crash — sees either the old complete file or the new one, never a torn
  write.  Crash-abandoned ``*.tmp-*`` files are ignored by every read
  path.
* **per-entry checksums** — the manifest records the SHA-256 of each npz;
  :meth:`StrategyRegistry.load` verifies it before deserializing.
  Entries written by a pre-checksum registry lack the field and verify
  lazily: their digest is computed and backfilled on first load.
* **quarantine, not crash** — an entry that fails its checksum, fails to
  parse, or has lost its npz is renamed into ``quarantine/`` (preserved
  for forensics), dropped from the manifest, and reported to the caller
  as a miss: :meth:`get` returns ``None``, so
  :meth:`~repro.service.engine.QueryService.route_misses` simply re-fits
  the workload cold instead of failing the request.  A manifest that
  itself fails to parse is quarantined and rebuilt from the npz files
  present (fit metadata is lost; strategies are not).

All cross-process read-modify-write cycles on the manifest run under an
exclusive ``flock`` on a ``.lock`` sidecar, and all filesystem effects
route through the :mod:`~repro.util.faults` fault points
(``registry.npz.write`` / ``.fsync`` / ``.replace``,
``registry.manifest.*``, ``registry.load``) so the crash matrix in
``tests/test_faults.py`` can drive every one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

try:
    import fcntl
except ImportError:  # non-POSIX platform — single-process use only
    fcntl = None

from ..linalg import (
    Matrix,
    flatten_arrays,
    matrix_from_config,
    matrix_to_config,
    restore_arrays,
)
from ..core.solvers import export_gram_solver_state, restore_gram_solver_state
from ..domain import Domain
from ..obs.events import emit as _emit
from ..obs.metrics import REGISTRY as _METRICS
from ..util import faults
from ..util.retry import DURABLE_WRITE_POLICY, call_retrying
from ..workload.logical import LogicalWorkload
from .fingerprint import workload_fingerprint

__all__ = ["RegistryCorruptionError", "StrategyRecord", "StrategyRegistry"]

logger = logging.getLogger(__name__)

_MANIFEST = "manifest.json"
_QUARANTINE = "quarantine"
#: Version 2 adds per-entry ``sha256`` checksums.  Version-1 manifests
#: (pre-checksum) are still accepted; their entries verify lazily — the
#: digest is computed and backfilled on each entry's first load.
_MANIFEST_VERSION = 2
_ACCEPTED_VERSIONS = frozenset({1, _MANIFEST_VERSION})
#: Accelerator tables live beside strategy npz files under this suffix
#: and are tracked in the manifest's ``tables`` section (absent in
#: pre-accelerator manifests — readers use ``.get("tables", {})``).
_TABLE_SUFFIX = ".accel.npz"


class RegistryCorruptionError(RuntimeError):
    """A persisted strategy failed verification and was quarantined.

    :meth:`StrategyRegistry.get` absorbs this into a cold miss; it only
    reaches callers that :meth:`StrategyRegistry.load` a key directly.
    """


@dataclass
class StrategyRecord:
    """A deserialized registry entry, serve-ready.

    Attributes
    ----------
    key:
        The workload fingerprint the strategy is stored under.
    strategy:
        The reconstructed strategy matrix, with its union-Gram solver
        state already attached (no re-factorization on first use).
    loss:
        ``‖W A⁺‖_F²`` recorded at fit time (None if not recorded).
    meta:
        The manifest metadata for the entry (reprs, shapes, timestamps,
        caller extras).
    """

    key: str
    strategy: Matrix
    loss: float | None = None
    meta: dict = field(default_factory=dict)


def _fsync_dir(path: str) -> None:
    """Durably commit a rename: fsync the containing directory."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        call_retrying(lambda: os.fsync(fd), DURABLE_WRITE_POLICY)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes, site: str) -> str:
    """temp file → write → flush → fsync → replace → dir fsync; returns
    the SHA-256 of the bytes written.

    The digest is taken *after* the ``<site>.payload`` mangle point, so
    injected bit flips reach the checksum machinery exactly as silent
    on-disk corruption would.  Ordinary failures clean up the temp file;
    a :class:`SimulatedCrash` (``BaseException``) leaves it behind
    exactly as a real kill would (read paths ignore ``*.tmp-*``).
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    payload = data
    try:
        with open(tmp, "wb") as f:

            def _write():
                nonlocal payload
                faults.check(f"{site}.write")
                payload = faults.mangle(f"{site}.payload", data)
                f.write(payload)
                f.flush()

            def _fsync():
                faults.check(f"{site}.fsync")
                os.fsync(f.fileno())

            call_retrying(_write, DURABLE_WRITE_POLICY)
            call_retrying(_fsync, DURABLE_WRITE_POLICY)
        faults.check(f"{site}.replace")
        os.replace(tmp, path)
    except Exception:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(path)))
    return hashlib.sha256(payload).hexdigest()


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_verified(path: str, expected: str | None, site: str, what: str, parse):
    """``(digest, parse(npz))`` of the npz at ``path``, its SHA-256 checked
    against the manifest's ``expected`` digest first.

    Transient read faults (EINTR/EAGAIN/ENOSPC) retry under the shared
    backoff policy, before a caller's except-clause would misclassify
    them as corruption and quarantine a good file; a digest mismatch
    raises :class:`RegistryCorruptionError`.
    """

    def read():
        faults.check(site)
        digest = _file_sha256(path)
        if expected is not None and digest != expected:
            raise RegistryCorruptionError(
                f"{what} failed its checksum: manifest records sha256 "
                f"{expected[:16]}…, file has {digest[:16]}…"
            )
        with np.load(path, allow_pickle=False) as npz:
            return digest, parse(npz)

    return call_retrying(read)


class StrategyRegistry:
    """npz + JSON-manifest store of fitted strategies, keyed by fingerprint.

    The root directory is created (and probed for writability) at
    construction, so a service wired to an unusable path fails here with
    a clear error instead of deep inside its first cold fit.
    """

    def __init__(self, root: str):
        self.root = str(root)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as e:
            raise ValueError(
                f"registry root {self.root!r} cannot be created: {e}"
            ) from e
        if not os.path.isdir(self.root):
            raise ValueError(
                f"registry root {self.root!r} exists but is not a directory"
            )
        probe = os.path.join(self.root, f".probe-{os.getpid()}")
        try:
            with open(probe, "w"):
                pass
            os.remove(probe)
        except OSError as e:
            raise ValueError(
                f"registry root {self.root!r} is not writable: {e}"
            ) from e

    # -- manifest plumbing -------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST)

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive advisory lock over manifest read-modify-write cycles.

        Concurrent writers sharing the directory (the deployment this
        registry exists for) would otherwise lose each other's entries:
        both read, both write, last rename wins.  Uses ``flock`` on a
        sidecar file; on platforms without ``fcntl`` this degrades to no
        locking (single-process use).
        """
        if fcntl is None:
            yield
            return
        with open(os.path.join(self.root, ".lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _quarantine_file(self, name: str) -> str | None:
        """Move ``<root>/<name>`` aside into ``quarantine/`` (best effort);
        returns the quarantine path, or None if there was nothing to move."""
        src = os.path.join(self.root, name)
        if not os.path.exists(src):
            return None
        qdir = os.path.join(self.root, _QUARANTINE)
        os.makedirs(qdir, exist_ok=True)
        dst = os.path.join(qdir, f"{name}.{os.getpid()}-{int(time.time())}")
        try:
            os.replace(src, dst)
        except OSError:
            return None
        return dst

    def _rebuild_manifest(self) -> dict:
        """Best-effort manifest from the npz files present (used after the
        manifest itself was quarantined): fit metadata is lost, strategies
        are not — checksums are backfilled on each entry's first load."""
        entries = {}
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".npz") or ".tmp-" in name:
                continue
            if name.endswith(_TABLE_SUFFIX):
                # Accelerator tables are not strategy entries; they are
                # pure caches, rebuilt from x̂ whenever absent.
                continue
            entries[name[:-4]] = {"file": name, "recovered": True}
        return {"version": _MANIFEST_VERSION, "entries": entries}

    def _read_manifest(self) -> dict:
        faults.check("registry.manifest.read")
        try:
            with open(self.manifest_path) as f:
                manifest = json.load(f)
        except FileNotFoundError:
            return {"version": _MANIFEST_VERSION, "entries": {}}
        except ValueError:
            where = self._quarantine_file(_MANIFEST)
            _emit(
                logger,
                "registry.manifest_quarantined",
                path=self.manifest_path,
                quarantined_to=where,
                action="rebuilt from npz files present (fit metadata lost)",
            )
            manifest = self._rebuild_manifest()
            self._write_manifest(manifest)
            return manifest
        if manifest.get("version") not in _ACCEPTED_VERSIONS:
            raise ValueError(
                f"unsupported registry manifest version "
                f"{manifest.get('version')!r} at {self.manifest_path}"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        manifest["version"] = _MANIFEST_VERSION
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        _atomic_write(self.manifest_path, data, site="registry.manifest")

    def _strategy_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    def _table_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{_TABLE_SUFFIX}")

    def _write_npz(self, path: str, arrays: dict, site: str) -> str:
        """Atomically write an npz (serialized in memory, then through
        :func:`_atomic_write`) and return the SHA-256 of its bytes."""
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return _atomic_write(path, buf.getvalue(), site)

    # -- keys --------------------------------------------------------------
    def key_for(
        self,
        workload: Matrix | LogicalWorkload,
        domain: Domain | None = None,
        template: str | None = None,
    ) -> str:
        """The fingerprint this registry files ``workload`` under."""
        return workload_fingerprint(workload, domain=domain, template=template)

    def keys(self) -> list[str]:
        return sorted(self._read_manifest()["entries"])

    def __len__(self) -> int:
        return len(self._read_manifest()["entries"])

    def __contains__(self, key: str) -> bool:
        return key in self._read_manifest()["entries"]

    def entry(self, key: str) -> dict:
        """The manifest metadata of ``key`` (no strategy deserialization)."""
        entries = self._read_manifest()["entries"]
        if key not in entries:
            raise KeyError(f"no strategy registered under {key!r}")
        return dict(entries[key])

    # -- persistence -------------------------------------------------------
    def put(
        self,
        workload: Matrix | LogicalWorkload,
        strategy: Matrix,
        loss: float | None = None,
        domain: Domain | None = None,
        template: str | None = None,
        metadata: dict | None = None,
    ) -> str:
        """Persist a fitted strategy; returns its registry key.

        An existing entry for the same key is replaced (re-fitting a
        workload updates the served strategy).  The npz is written
        atomically (temp + fsync + replace) and its SHA-256 is recorded
        in the manifest before the entry becomes visible, so no reader
        can ever observe a strategy without the checksum that guards it.
        """
        key = self.key_for(workload, domain=domain, template=template)
        digest, solver = self._write_strategy_npz(key, strategy)

        with self._locked():
            manifest = self._read_manifest()
            manifest["entries"][key] = {
                "file": f"{key}.npz",
                "sha256": digest,
                "strategy": repr(strategy),
                "workload": repr(workload),
                "shape": [int(s) for s in strategy.shape],
                "sensitivity": float(strategy.sensitivity()),
                "loss": None if loss is None else float(loss),
                "template": template or "",
                "solver_state": solver is not None,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "metadata": metadata or {},
            }
            self._write_manifest(manifest)
        return key

    def _write_strategy_npz(self, key: str, strategy: Matrix):
        """Serialize strategy + solver state into ``<key>.npz`` atomically;
        returns ``(sha256, exported_solver_state)``."""
        solver = export_gram_solver_state(strategy)
        payload = {
            "strategy": matrix_to_config(strategy),
            "solver": solver,
        }
        flat, arrays = flatten_arrays(payload)
        # The atomic temp → fsync → replace dance makes a concurrent
        # load of the same key read either the old complete file or the
        # new one.
        digest = self._write_npz(
            self._strategy_path(key),
            {"__config__": json.dumps(flat), **arrays},
            site="registry.npz",
        )
        return digest, solver

    def refresh_solver_state(self, key: str, strategy: Matrix) -> bool:
        """Re-persist an entry's npz with the strategy's union Gram solver
        state (:func:`~repro.core.solvers.export_gram_solver_state`).

        An entry can lack that state — one written before the current
        state shape, whose solver state is ignored on load.  This
        rewrites the npz in place (atomically, checksum updated before
        the manifest flips) while preserving the entry's fit metadata,
        so a fresh process warm loads the strategy already factored.
        Returns ``False`` (no-op) when the key is not registered.
        """
        if key not in self._read_manifest()["entries"]:
            return False
        digest, solver = self._write_strategy_npz(key, strategy)
        with self._locked():
            manifest = self._read_manifest()
            entry = manifest["entries"].get(key)
            if entry is None:  # deleted concurrently; npz is orphaned
                return False
            entry["sha256"] = digest
            entry["solver_state"] = solver is not None
            self._write_manifest(manifest)
        return True

    # -- accelerator tables ------------------------------------------------
    def put_table(self, key: str, arrays: dict, meta: dict | None = None) -> str:
        """Persist an accelerator table under ``key``.

        Tables are derived caches, not sources of truth, but they still
        get the full durability treatment (atomic write, manifest
        sha256): a silently corrupted table would serve wrong answers
        with real privacy budget behind them, exactly like a corrupted
        strategy.  Fault sites: ``registry.table.{write,fsync,payload,
        replace}`` and ``registry.table.load``.
        """
        digest = self._write_npz(
            self._table_path(key), dict(arrays), site="registry.table"
        )
        with self._locked():
            manifest = self._read_manifest()
            tables = manifest.setdefault("tables", {})
            tables[key] = {
                "file": f"{key}{_TABLE_SUFFIX}",
                "sha256": digest,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "metadata": meta or {},
            }
            self._write_manifest(manifest)
        return key

    def get_table(self, key: str) -> dict | None:
        """Load a persisted accelerator table's arrays, or ``None``.

        A transient read fault is retried, as in :meth:`load`.  A
        checksum mismatch, torn zip, or missing file quarantines the
        table and returns ``None`` — the caller rebuilds the table from
        the cached reconstruction and re-persists it; corruption never
        crashes serving and never produces wrong answers.
        """
        meta = self._read_manifest().get("tables", {}).get(key)
        if meta is None:
            return None
        try:
            return _read_verified(
                self._table_path(key), meta.get("sha256"),
                "registry.table.load", f"table {key!r}",
                lambda npz: {name: npz[name] for name in npz.files},
            )[1]
        except Exception as e:  # checksum, torn zip, missing file
            self._quarantine(
                "tables", key, f"{key}{_TABLE_SUFFIX}",
                "registry.table_quarantined", f"{type(e).__name__}: {e}",
            )
            return None

    def table_keys(self) -> list[str]:
        return sorted(self._read_manifest().get("tables", {}))

    def quarantine(self, key: str, reason: str) -> None:
        """Move a damaged entry aside and drop it from the manifest.

        The npz is preserved under ``quarantine/`` for forensics; the
        manifest forgets the key, so every later lookup is a clean cold
        miss that re-fits and re-persists the strategy.
        """
        self._quarantine(
            "entries", key, f"{key}.npz", "registry.entry_quarantined", reason
        )

    def _quarantine(
        self, section: str, key: str, name: str, event: str, reason: str
    ) -> None:
        """Move ``<root>/<name>`` aside, drop ``key`` from the manifest's
        ``section`` (``"entries"``, or ``"tables"``, whose next eligible
        hit rebuilds the table from x̂) and emit ``event``."""
        where = self._quarantine_file(name)
        with self._locked():
            manifest = self._read_manifest()
            if key in manifest.get(section, {}):
                del manifest[section][key]
                self._write_manifest(manifest)
        _emit(logger, event, key=key, reason=reason, quarantined_to=where)

    def _backfill_checksum(self, key: str, digest: str) -> None:
        """Lazily record the digest of a pre-checksum (version-1) entry."""
        with self._locked():
            manifest = self._read_manifest()
            entry = manifest["entries"].get(key)
            if entry is not None and "sha256" not in entry:
                entry["sha256"] = digest
                self._write_manifest(manifest)

    def load(self, key: str) -> StrategyRecord:
        """Deserialize the strategy stored under ``key``.

        Raises ``KeyError`` on an unknown key.  The npz's SHA-256 is
        verified against the manifest before deserializing (pre-checksum
        entries have their digest backfilled instead); any mismatch,
        parse failure, or missing file quarantines the entry and raises
        :class:`RegistryCorruptionError` — callers going through
        :meth:`get` see a plain miss.
        """
        meta = self.entry(key)
        path = self._strategy_path(key)
        t0 = time.perf_counter()
        expected = meta.get("sha256")
        try:
            digest, payload = _read_verified(
                path, expected, "registry.load", f"strategy {key!r}",
                lambda npz: restore_arrays(
                    json.loads(npz["__config__"].item()), npz
                ),
            )
            strategy = matrix_from_config(payload["strategy"])
            restore_gram_solver_state(strategy, payload["solver"])
        except RegistryCorruptionError as e:
            self.quarantine(key, str(e))
            raise
        except Exception as e:  # torn zip, bad JSON, missing file/arrays
            self.quarantine(key, f"{type(e).__name__}: {e}")
            raise RegistryCorruptionError(
                f"strategy {key!r} could not be deserialized and was "
                f"quarantined ({type(e).__name__}: {e})"
            ) from e
        if expected is None:
            self._backfill_checksum(key, digest)
        if _METRICS.enabled:
            _METRICS.histogram("registry.warm_load_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
        return StrategyRecord(
            key=key, strategy=strategy, loss=meta.get("loss"), meta=meta
        )

    def get(
        self,
        workload: Matrix | LogicalWorkload,
        domain: Domain | None = None,
        template: str | None = None,
    ) -> StrategyRecord | None:
        """Look up the strategy fitted for ``workload``.

        Returns ``None`` on a miss — including the graceful-degradation
        miss where the stored entry turned out to be corrupt and was
        quarantined: the caller re-fits cold rather than failing.
        """
        key = self.key_for(workload, domain=domain, template=template)
        try:
            return self.load(key)
        except (KeyError, RegistryCorruptionError):  # unknown or quarantined
            return None

    def delete(self, key: str) -> None:
        """Remove an entry and its npz file (KeyError on miss)."""
        with self._locked():
            manifest = self._read_manifest()
            if key not in manifest["entries"]:
                raise KeyError(f"no strategy registered under {key!r}")
            del manifest["entries"][key]
            self._write_manifest(manifest)
        try:
            os.remove(self._strategy_path(key))
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return f"StrategyRegistry(root={self.root!r}, entries={len(self)})"
