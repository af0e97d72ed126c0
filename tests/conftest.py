"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.hashing import PublicCoins
from repro.metric import GridSpace, HammingSpace


@pytest.fixture
def coins() -> PublicCoins:
    return PublicCoins(0xC0FFEE)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xFEED)


@pytest.fixture
def hamming_space() -> HammingSpace:
    return HammingSpace(32)


@pytest.fixture
def l1_space() -> GridSpace:
    return GridSpace(side=128, dim=4, p=1.0)


@pytest.fixture
def l2_space() -> GridSpace:
    return GridSpace(side=128, dim=4, p=2.0)


@pytest.fixture
def src_env() -> dict:
    """The environment for a subprocess that imports this checkout's ``repro``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
