"""Stdlib-only helpers shared by every layer.

Nothing here imports the rest of the package, so ``service``, ``obs``
and ``server`` can all depend on these modules without an import cycle:

* :mod:`repro.util.retry` — the retry policy and the one retry loop;
* :mod:`repro.util.jsonl` — the canonical-JSON + crc record codec and
  its committed-prefix parser (the WAL and trace-log line format);
* :mod:`repro.util.faults` — deterministic fault points for the
  crash-consistency tests.
"""
