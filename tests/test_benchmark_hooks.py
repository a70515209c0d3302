"""The benchmark's traced run replaces module attributes by name.

``perfbench/tracing.py`` lists them in ``PATCHES`` as (module, name, layer).
A refactor that moves or renames one of those functions would otherwise
only surface when the traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # No bytecode cache is written next to the benchmark's sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists(monkeypatch):
    patches = _load_tracing(monkeypatch).PATCHES
    assert patches
    missing = [
        f"thermoslam.{module}.{name}"
        for module, name, _ in patches
        if not callable(getattr(importlib.import_module(f"thermoslam.{module}"), name, None))
    ]
    assert missing == []
