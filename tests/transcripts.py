"""Transcript digests shared by the protocol pin tests.

A digest covers every message a run put on its channel (sender, label,
bit count and payload bytes) and every field of its result dataclass,
so one hex string pins a whole batch of fixed-seed runs byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np


def _canonical(value):
    """JSON-ready form of a result field: tuples as lists, numpy scalars
    as Python numbers, so the digest does not depend on container types."""
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def transcript_digest(runs) -> str:
    """SHA-256 over every message (sender, label, bits, payload) and every
    result field (by name) of ``runs``, a sequence of ``(result, channel)``."""
    digest = hashlib.sha256()
    for result, channel in runs:
        for message in channel.messages:
            header = f"{message.sender}|{message.label}|{message.payload_bits}|"
            digest.update(header.encode())
            digest.update(message.payload)
        fields = {
            field.name: _canonical(getattr(result, field.name))
            for field in dataclasses.fields(result)
        }
        digest.update(json.dumps(fields, sort_keys=True).encode())
    return digest.hexdigest()
