"""The end-to-end benchmark's tracer still finds every callable it times.

``e2ebench/tracer.py`` wraps named methods on the class that defines them
(it reads ``owner.__dict__[name]``) and named module functions.  Moving
one of them — say, a table's ``decode`` into a shared base class — breaks
only the traced benchmark run; this test catches it in the unit suite.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from e2ebench.tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer._patches
    assert tracer.restored()
