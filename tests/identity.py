"""Bitwise identity helpers for campaign results and traced streams.

``TrialResult.__eq__`` compares floats with ``==``, so two runs that
return the same NaN bit for bit compare unequal, and an identity test
only passes for seeds whose trials happen to avoid NaN results.  These
helpers compare floats by their IEEE-754 bits instead, and hash trial
records and JSONL event streams into SHA-256 digests that can be pinned.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import fields, is_dataclass


def canonical(value):
    """``value`` as nested tuples that compare floats by their bits."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value).hex())
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(
            (canonical(key), canonical(item)) for key, item in value.items()
        )
    return value


def campaign_key(result) -> tuple:
    """Golden run, counts, trials and (supervised) records, bitwise."""
    golden = result.golden
    return canonical((
        golden.status, golden.value, golden.cycles, golden.instructions,
        result.counts.as_dict(), result.trials,
        getattr(result, "records", None),
    ))


def assert_identical(a, b) -> None:
    """Two campaign results agree bit for bit (NaN-safe)."""
    assert campaign_key(a) == campaign_key(b)


def assert_trials_identical(a, b) -> None:
    """Two trial (or record) sequences agree bit for bit (NaN-safe)."""
    assert canonical(list(a)) == canonical(list(b))


def trials_digest(result) -> str:
    """SHA-256 over one line per trial (and recovery record)."""
    digest = hashlib.sha256()
    records = getattr(result, "records", None) or [None] * len(result.trials)
    for trial, record in zip(result.trials, records):
        digest.update(repr(canonical((trial, record))).encode() + b"\n")
    return digest.hexdigest()


def value_digest(value) -> str:
    """SHA-256 of ``value``'s canonical form (floats by their bits)."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def stream_digest(records) -> str:
    """SHA-256 of the JSONL lines a ``JsonlSink`` would write.

    ``records`` are the ``(seq, event)`` pairs of an ``InMemorySink``.
    """
    digest = hashlib.sha256()
    for seq, event in records:
        line = json.dumps({"seq": seq, **event.to_dict()})
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()
