"""Crash-consistency fault matrix for the durability subsystem.

Drives deterministic faults (kill-points, bit flips, transient errnos)
through every write/fsync/replace/load site of the write-ahead ε-ledger
and the strategy registry, and proves the invariants the service layer
stakes its privacy guarantee on:

* recovered accountant state equals the pre-crash **committed prefix**
  — never less than the noise actually released, and no kill-point
  leaves an overdrawn budget;
* torn ledger tails are truncated, corrupted records stop the replay at
  the last good record;
* no corrupted strategy is ever served: damaged registry entries are
  quarantined and re-fit as cold misses, never crashing a request;
* concurrent debitors — threads in one process and separate processes
  sharing a ledger file — can never jointly overdraw a cap;
* with no fault armed, the durable paths are bit-identical to the
  in-memory ones.
"""

import errno
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.linalg import Dense, Identity, Prefix
from repro.service import (
    BudgetExceededError,
    PrivacyAccountant,
    QueryService,
    RegistryCorruptionError,
    StrategyRegistry,
    WriteAheadLedger,
)
from repro.util import faults
from repro.util.jsonl import TornRecordError, decode_line, encode_record


# ---------------------------------------------------------------------------
# WAL unit behaviour
# ---------------------------------------------------------------------------


class TestLedgerFormat:
    def test_roundtrip(self):
        rec = {"kind": "debit", "dataset": "d", "epsilon": 0.5}
        assert decode_line(encode_record(rec)) == rec

    def test_bad_json_is_torn(self):
        with pytest.raises(TornRecordError):
            decode_line(b'{"kind": "debit", "epsi\n')

    def test_forged_crc_is_torn(self):
        line = encode_record({"kind": "debit", "dataset": "d", "epsilon": 1.0})
        forged = line.replace(b'"epsilon":1.0', b'"epsilon":9.0')
        with pytest.raises(TornRecordError):
            decode_line(forged)

    def test_single_flipped_bit_is_torn(self):
        line = encode_record({"kind": "debit", "dataset": "d", "epsilon": 1.0})
        buf = bytearray(line)
        buf[len(buf) // 2] ^= 0x04
        with pytest.raises(TornRecordError):
            decode_line(bytes(buf))


class TestLedgerRecovery:
    def test_recover_replays_committed_state(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("adult", 3.0)
        a.charge("adult", 0.5, stage="s1")
        a.charge_parallel("adult", [0.2, 0.7], stage="s2")

        b = PrivacyAccountant.recover(p)
        assert b.cap("adult") == 3.0
        assert b.spent("adult") == pytest.approx(1.2)
        assert [(e.composition, e.epsilon) for e in b.ledger] == [
            ("sequential", 0.5),
            ("parallel", 0.7),
        ]

    def test_torn_tail_is_truncated(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 5.0)
        a.charge("d", 1.0)
        size_committed = os.path.getsize(p)
        with open(p, "ab") as f:  # a crashed writer's half record
            f.write(b'{"kind":"debit","dataset":"d","epsilon":99')

        b = PrivacyAccountant.recover(p)
        assert b.spent("d") == 1.0
        assert os.path.getsize(p) == size_committed  # tail physically gone
        # And the recovered accountant keeps working past the old tail.
        b.charge("d", 0.5)
        c = PrivacyAccountant.recover(p)
        assert c.spent("d") == pytest.approx(1.5)

    def test_corrupt_middle_record_stops_replay_at_prefix(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 10.0)
        inj = faults.FaultInjector().flip_bit(
            "ledger.append.payload", byte=30, bit=2, after=2
        )
        with inj.active():
            a.charge("d", 1.0)
            a.charge("d", 2.0)  # corrupted on disk
            a.charge("d", 4.0)  # after the corruption: unreachable on replay
        assert inj.fired  # the flip actually happened
        b = PrivacyAccountant.recover(p)
        # Replay stops at the damaged record: the committed prefix is the
        # register + first debit only.
        assert b.spent("d") == 1.0
        assert len(b.ledger) == 1

    def test_two_accountants_cannot_jointly_overdraw(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 1.0)
        b = PrivacyAccountant.recover(p)
        a.charge("d", 0.6)
        with pytest.raises(BudgetExceededError) as exc:
            b.charge("d", 0.6)  # sees a's debit through the ledger
        assert exc.value.remaining == pytest.approx(0.4)
        b.charge("d", 0.4)
        assert PrivacyAccountant.recover(p).spent("d") == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Kill-point matrix: ledger
# ---------------------------------------------------------------------------

_LEDGER_SITES = [
    "ledger.append.write",  # pre-fsync: record may be lost, never half-counted
    "ledger.append.fsync",  # mid-commit
    "ledger.append.commit",  # post-fsync / pre-apply: record durable
]


class TestLedgerKillMatrix:
    @pytest.mark.parametrize("site", _LEDGER_SITES)
    @pytest.mark.parametrize("op", [1, 2, 3])
    def test_recovery_equals_committed_prefix(self, tmp_path, site, op):
        p = str(tmp_path / "eps.wal")
        boot = PrivacyAccountant(wal_path=p)
        boot.register("d", 100.0)

        acct = PrivacyAccountant.recover(p)
        amounts = [0.25, 0.5, 0.75, 1.0]
        returned = []  # debits whose charge() returned => noise was released
        inj = faults.FaultInjector().crash(site, after=op)
        crashed = False
        with inj.active():
            try:
                for amt in amounts:
                    acct.charge("d", amt)
                    returned.append(amt)
            except faults.SimulatedCrash:
                crashed = True
        assert crashed, f"kill-point {site}#{op} never fired"

        rec = PrivacyAccountant.recover(p)
        spent = rec.spent("d")
        # The privacy invariant: every debit that authorized noise is in
        # the replay.  The in-flight debit may additionally have committed
        # (post-fsync kills) — conservative, never the reverse.
        assert spent >= sum(returned) - 1e-12
        assert spent <= sum(amounts[: len(returned) + 1]) + 1e-12
        assert spent <= rec.cap("d")
        if site == "ledger.append.commit":
            # Post-fsync: the in-flight record is durably committed.
            assert spent == pytest.approx(sum(amounts[: len(returned) + 1]))
        if site == "ledger.append.write":
            # Pre-write: nothing of the in-flight record ever hit disk.
            assert spent == pytest.approx(sum(returned))

        # The ledger file itself is fully parseable after recovery.
        with open(p, "rb") as f:
            for line in f.read().splitlines(keepends=True):
                decode_line(line)

    @pytest.mark.parametrize("site", ["ledger.append.write", "ledger.append.fsync"])
    def test_transient_errors_are_retried(self, tmp_path, site):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 10.0)
        for err in (errno.ENOSPC, errno.EINTR):
            before = a.spent("d")
            inj = faults.FaultInjector().fail(site, err, times=2)
            with inj.active():
                a.charge("d", 0.5)
            assert a.spent("d") == pytest.approx(before + 0.5)
            assert len(inj.fired) == 2  # both transient failures exercised
        assert PrivacyAccountant.recover(p).spent("d") == pytest.approx(
            a.spent("d")
        )

    def test_persistent_transient_error_propagates_cleanly(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 10.0)
        a.charge("d", 1.0)
        inj = faults.FaultInjector().fail(
            "ledger.append.write", errno.ENOSPC, times=50
        )
        with inj.active():
            with pytest.raises(OSError):
                a.charge("d", 1.0)
        # The failed debit is recorded nowhere: not in memory, not on disk.
        assert a.spent("d") == 1.0
        assert PrivacyAccountant.recover(p).spent("d") == 1.0


# ---------------------------------------------------------------------------
# Kill-point matrix: registry
# ---------------------------------------------------------------------------

_PUT_SITES = [
    "registry.npz.write",  # mid-npz-write: tmp abandoned, old entry intact
    "registry.npz.fsync",
    "registry.npz.replace",  # pre-replace: old npz + old manifest
    "registry.manifest.write",  # new npz in place, old manifest
    "registry.manifest.fsync",
    "registry.manifest.replace",
]


def _small_case():
    W = Prefix(8)
    A_old = Identity(8)
    A_new = Dense(2.0 * np.eye(8))
    return W, A_old, A_new


class TestRegistryKillMatrix:
    @pytest.mark.parametrize("site", _PUT_SITES)
    def test_crashed_put_never_serves_a_torn_strategy(self, tmp_path, site):
        root = str(tmp_path / "reg")
        W, A_old, A_new = _small_case()
        reg = StrategyRegistry(root)
        reg.put(W, A_old, loss=1.0)

        inj = faults.FaultInjector().crash(site)
        with inj.active():
            with pytest.raises(faults.SimulatedCrash):
                StrategyRegistry(root).put(W, A_new, loss=2.0)

        # The next process sees a consistent registry: the entry loads
        # cleanly as either the old or the new strategy, or reads as a
        # cold miss (new npz + stale manifest checksum => quarantined) —
        # but never crashes a request and never serves torn bytes.
        fresh = StrategyRegistry(root)
        rec = fresh.get(W)
        if rec is not None:
            got = rec.strategy.dense()
            assert np.array_equal(got, A_old.dense()) or np.array_equal(
                got, A_new.dense()
            )
        # Recovery completes: a re-put lands and serves the new strategy.
        fresh.put(W, A_new, loss=2.0)
        again = StrategyRegistry(root).get(W)
        assert again is not None
        assert np.array_equal(again.strategy.dense(), A_new.dense())
        assert again.meta["sha256"]

    def test_crash_mid_npz_write_leaves_tmp_ignored(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        inj = faults.FaultInjector().crash("registry.npz.write")
        with inj.active():
            with pytest.raises(faults.SimulatedCrash):
                reg.put(W, A_old)
        tmps = [n for n in os.listdir(root) if ".tmp-" in n]
        assert tmps, "simulated kill should abandon the tmp file"
        fresh = StrategyRegistry(root)
        assert fresh.get(W) is None
        assert fresh.keys() == []


class TestRegistryCorruption:
    def test_bitflip_is_quarantined_and_read_as_miss(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        key = reg.put(W, A_old)
        path = os.path.join(root, f"{key}.npz")
        with open(path, "r+b") as f:  # one flipped bit, mid-file
            f.seek(os.path.getsize(path) // 2)
            b = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([b[0] ^ 0x10]))

        fresh = StrategyRegistry(root)
        assert fresh.get(W) is None  # checksum caught it: miss, not crash
        assert not os.path.exists(path)  # moved aside, not deleted
        qdir = os.path.join(root, "quarantine")
        assert os.listdir(qdir)
        assert key not in fresh  # manifest forgot the entry
        with pytest.raises(KeyError):
            fresh.load(key)

    def test_direct_load_of_corrupt_entry_raises_registry_error(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        key = reg.put(W, A_old)
        inj = faults.FaultInjector().flip_bit(
            "registry.npz.payload", byte=-200, bit=3
        )
        with inj.active():
            key2 = reg.put(W, A_old)  # corrupted at the write site
        assert key2 == key
        with pytest.raises(RegistryCorruptionError):
            StrategyRegistry(root).load(key)

    def test_missing_npz_degrades_to_cold_miss(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        key = reg.put(W, A_old)
        os.remove(os.path.join(root, f"{key}.npz"))
        fresh = StrategyRegistry(root)
        assert fresh.get(W) is None
        assert key not in fresh

    def test_corrupt_manifest_rebuilds_from_npz_files(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        key = reg.put(W, A_old, loss=7.0)
        with open(os.path.join(root, "manifest.json"), "w") as f:
            f.write('{"version": 2, "entr')  # torn manifest write... almost

        fresh = StrategyRegistry(root)
        assert fresh.keys() == [key]  # rebuilt from the npz present
        rec = fresh.get(W)
        assert rec is not None
        assert np.array_equal(rec.strategy.dense(), A_old.dense())
        assert rec.loss is None  # fit metadata was lost with the manifest
        assert os.listdir(os.path.join(root, "quarantine"))

    def test_v1_manifest_entry_verifies_lazily_and_backfills(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        key = reg.put(W, A_old)
        # Rewrite the manifest as a pre-checksum (version 1) registry
        # would have left it.
        mpath = os.path.join(root, "manifest.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest["version"] = 1
        del manifest["entries"][key]["sha256"]
        with open(mpath, "w") as f:
            json.dump(manifest, f)

        fresh = StrategyRegistry(root)
        rec = fresh.load(key)  # verifies lazily: no checksum to compare yet
        assert np.array_equal(rec.strategy.dense(), A_old.dense())
        assert fresh.entry(key)["sha256"]  # backfilled on first load
        with open(mpath) as f:
            assert json.load(f)["version"] == 2

    def test_corrupted_entry_is_refit_cold_by_the_service(self, tmp_path):
        root = str(tmp_path / "reg")
        W = Prefix(8)
        svc = QueryService(registry=StrategyRegistry(root), restarts=1, rng=0)
        key, strategy, _, from_registry = svc.prepare(W)
        assert not from_registry
        # Corrupt the persisted entry behind the next process's back.
        path = os.path.join(root, f"{key}.npz")
        with open(path, "r+b") as f:
            f.seek(100)
            f.write(b"\xff\xff\xff\xff")

        svc2 = QueryService(registry=StrategyRegistry(root), restarts=1, rng=0)
        key2, strategy2, _, from_registry2 = svc2.prepare(W)
        assert key2 == key
        assert not from_registry2  # quarantined => cold miss, not a crash
        # The re-fit re-persisted a good copy: third process loads warm.
        svc3 = QueryService(registry=StrategyRegistry(root), restarts=1, rng=0)
        _, _, _, from_registry3 = svc3.prepare(W)
        assert from_registry3

    def test_registry_transient_write_errors_are_retried(self, tmp_path):
        root = str(tmp_path / "reg")
        W, A_old, _ = _small_case()
        reg = StrategyRegistry(root)
        inj = (
            faults.FaultInjector()
            .fail("registry.npz.fsync", errno.EINTR, times=2)
            .fail("registry.manifest.write", errno.ENOSPC, times=1)
        )
        with inj.active():
            key = reg.put(W, A_old)
        assert len(inj.fired) == 3
        rec = StrategyRegistry(root).load(key)
        assert np.array_equal(rec.strategy.dense(), A_old.dense())


# ---------------------------------------------------------------------------
# Concurrency: threads and processes
# ---------------------------------------------------------------------------


class TestThreadedStress:
    N_THREADS = 8
    ATTEMPTS = 40
    CAP = 7.0

    def _hammer(self, acct):
        """Mixed sequential/parallel debits from many threads; returns the
        per-thread sums of debits that were accepted."""
        accepted = [0.0] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS)

        def worker(t):
            barrier.wait()
            for i in range(self.ATTEMPTS):
                try:
                    if i % 3 == 2:
                        accepted[t] += acct.charge_parallel(
                            "d", [0.01 * (t + 1), 0.03], stage=f"t{t}"
                        )
                    else:
                        accepted[t] += acct.charge("d", 0.05, stage=f"t{t}")
                except BudgetExceededError:
                    pass

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return accepted

    def test_in_memory_accountant_never_overdraws(self):
        acct = PrivacyAccountant()
        acct.register("d", self.CAP)
        accepted = self._hammer(acct)
        assert acct.spent("d") <= self.CAP * (1 + 1e-9)
        assert acct.spent("d") == pytest.approx(sum(accepted))
        # Every accepted debit left exactly one ledger entry.
        assert sum(e.epsilon for e in acct.ledger) == pytest.approx(
            sum(accepted)
        )

    def test_wal_accountant_replay_reproduces_exact_final_state(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=p)
        acct.register("d", self.CAP)
        accepted = self._hammer(acct)
        assert acct.spent("d") <= self.CAP * (1 + 1e-9)
        assert acct.spent("d") == pytest.approx(sum(accepted))

        rec = PrivacyAccountant.recover(p)
        # Bit-exact, not approximate: the replayed float sum runs in the
        # same order the debits committed.
        assert rec.spent("d") == acct.spent("d")
        assert rec.cap("d") == self.CAP
        assert len(rec.ledger) == len(acct.ledger)
        assert [
            (e.dataset, e.epsilon, e.composition) for e in rec.ledger
        ] == [(e.dataset, e.epsilon, e.composition) for e in acct.ledger]


def _process_worker(wal_path, amount, result_queue):
    acct = PrivacyAccountant.recover(wal_path)
    total, refused = 0.0, 0
    for _ in range(60):
        try:
            total += acct.charge("shared", amount, stage=f"pid{os.getpid()}")
        except BudgetExceededError:
            refused += 1
            break
    result_queue.put((total, refused))


class TestMultiprocessCompareAndDebit:
    def test_two_processes_cannot_jointly_overdraw(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        cap = 2.0
        boot = PrivacyAccountant(wal_path=p)
        boot.register("shared", cap)

        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_process_worker, args=(p, 0.03, q))
            for _ in range(3)
        ]
        for pr in procs:
            pr.start()
        results = [q.get(timeout=60) for _ in procs]
        for pr in procs:
            pr.join(timeout=60)
            assert pr.exitcode == 0

        charged = sum(t for t, _ in results)
        assert sum(r for _, r in results) >= 1  # the cap actually bit
        assert charged <= cap * (1 + 1e-9)
        final = PrivacyAccountant.recover(p)
        assert final.spent("shared") == pytest.approx(charged)
        assert final.spent("shared") <= cap * (1 + 1e-9)


# ---------------------------------------------------------------------------
# No-fault bit-identity of the durable paths
# ---------------------------------------------------------------------------


class TestWarmPathBitIdentity:
    def test_wal_accountant_does_not_perturb_answers(self, tmp_path):
        W = Prefix(8)
        x = np.arange(8, dtype=float)

        def serve(accountant):
            svc = QueryService(
                registry=StrategyRegistry(str(tmp_path / "shared-reg")),
                accountant=accountant,
                restarts=1,
                rng=0,
            )
            svc.add_dataset("d", x, epsilon_cap=10.0)
            res = svc.measure("d", W, eps=[0.5, 1.0], trials=2, rng=42)
            return res.answers

    # The second service warm-loads through the checksum verify; the
    # WAL fsyncs every debit.  Neither may change a single bit.
        plain = serve(PrivacyAccountant())
        durable = serve(
            PrivacyAccountant(wal_path=str(tmp_path / "eps.wal"))
        )
        assert np.array_equal(plain, durable)

    def test_recovered_accountant_continues_the_same_budget(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        a = PrivacyAccountant(wal_path=p)
        a.register("d", 1.0)
        a.charge("d", 0.7)
        del a
        b = PrivacyAccountant.recover(p)
        with pytest.raises(BudgetExceededError) as exc:
            b.charge("d", 0.5)
        assert exc.value.spent == pytest.approx(0.7)
        assert exc.value.remaining == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# Satellites: constructor validation and actionable budget errors
# ---------------------------------------------------------------------------


class TestConstructorValidation:
    def test_registry_accepts_path_and_validates_it(self, tmp_path):
        svc = QueryService(registry=str(tmp_path / "reg"), restarts=1)
        assert isinstance(svc.registry, StrategyRegistry)
        assert os.path.isdir(str(tmp_path / "reg"))

    def test_registry_root_under_a_file_is_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="registry root"):
            QueryService(registry=str(blocker / "reg"))

    def test_registry_root_that_is_a_file_is_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="registry root"):
            StrategyRegistry(str(blocker))

    def test_registry_wrong_type_is_rejected(self):
        with pytest.raises(TypeError, match="registry"):
            QueryService(registry=42)

    def test_accountant_wrong_type_is_rejected(self):
        with pytest.raises(TypeError, match="accountant"):
            QueryService(accountant="5.0")

    def test_restarts_validated(self):
        with pytest.raises(ValueError, match="restarts"):
            QueryService(restarts=0)

    def test_ledger_missing_directory_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ledger directory"):
            WriteAheadLedger(str(tmp_path / "nope" / "eps.wal"))


class TestBudgetErrorReporting:
    def test_error_carries_the_full_budget_picture(self):
        acct = PrivacyAccountant()
        acct.register("adult", 2.0)
        acct.charge("adult", 1.5)
        with pytest.raises(BudgetExceededError) as exc:
            acct.charge("adult", 1.0)
        e = exc.value
        assert (e.dataset, e.cap, e.spent, e.requested) == ("adult", 2.0, 1.5, 1.0)
        assert e.remaining == pytest.approx(0.5)
        for token in ("'adult'", "cap 2", "spent 1.5", "debit 1"):
            assert token in str(e)

    def test_session_answers_report_remaining_budget(self):
        from repro.api import Schema, Session, total

        sess = Session(accountant=PrivacyAccountant(), restarts=1)
        ds = sess.dataset(
            "t",
            schema=Schema.from_spec({"a": 4}),
            data=np.ones(4),
            epsilon_cap=2.0,
        )
        ans = ds.ask(total(), eps=0.5)
        assert ans.epsilon == pytest.approx(0.5)
        assert ans.remaining == pytest.approx(1.5)
        again = ds.ask(total())  # free cache hit
        assert again.epsilon == 0.0
        assert again.remaining == pytest.approx(1.5)

    def test_session_overdraw_names_dataset_and_remaining(self):
        from repro.api import A, Schema, Session

        sess = Session(accountant=PrivacyAccountant(), restarts=1)
        ds = sess.dataset(
            "t",
            schema=Schema.from_spec({"a": 4}),
            data=np.ones(4),
            epsilon_cap=1.0,
        )
        with pytest.raises(BudgetExceededError) as exc:
            ds.ask(A("a").eq(1), eps=5.0)
        assert exc.value.dataset == "t"
        assert exc.value.remaining == pytest.approx(1.0)
