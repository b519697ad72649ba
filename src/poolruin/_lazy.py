"""Modules imported on first use.

scipy costs most of the package's import time, and only the Lomax
quadrature and a few phase-type routines need it.
"""

from __future__ import annotations

import importlib


class LazyModule:
    """Stands in for the module ``name`` and imports it on the first
    attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)
