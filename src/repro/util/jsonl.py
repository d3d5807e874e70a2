"""Canonical-JSON + crc record lines: the WAL and trace-log format.

One JSON object per line, with a ``crc`` field holding the first 16 hex
chars of SHA-256 over the record's canonical JSON (sorted keys, compact
separators) *without* the crc field.  :func:`parse_committed` reads a
byte buffer of such lines and stops at the first line that is incomplete
(no trailing newline), unparsable, or checksum-mismatched — everything
from there on is the torn tail a crashed writer left behind.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["TornRecordError", "decode_line", "encode_record", "parse_committed"]

_CRC_CHARS = 16


class TornRecordError(ValueError):
    """A record line failed to parse or verify — the torn-tail marker."""


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def encode_record(record: dict) -> bytes:
    """Serialize one record to its checksummed JSONL line (with newline)."""
    crc = hashlib.sha256(_canonical(record)).hexdigest()[:_CRC_CHARS]
    return _canonical({**record, "crc": crc}) + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse and verify one line; :class:`TornRecordError` on any damage
    (bad JSON, missing/forged crc) — the caller treats the rest of the
    file as a torn tail."""
    try:
        record = json.loads(line)
    except ValueError as e:
        raise TornRecordError(f"unparsable ledger line: {e}") from None
    if not isinstance(record, dict):
        raise TornRecordError(f"ledger line is not an object: {record!r}")
    crc = record.pop("crc", None)
    expect = hashlib.sha256(_canonical(record)).hexdigest()[:_CRC_CHARS]
    if crc != expect:
        raise TornRecordError(
            f"ledger record checksum mismatch: stored {crc!r}, computed {expect!r}"
        )
    return record


def parse_committed(data: bytes) -> tuple[list[dict], int, bool]:
    """Decode the committed prefix of ``data``.

    Returns ``(records, consumed, torn)``: the verified records in order,
    the byte length of the lines they came from, and whether anything
    (an incomplete or damaged line) follows that prefix.
    """
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:  # incomplete final line — a write in flight or torn
            return records, pos, True
        try:
            records.append(decode_line(data[pos : nl + 1]))
        except TornRecordError:
            return records, pos, True
        pos = nl + 1
    return records, pos, False
