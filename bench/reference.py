"""Values recorded from mwkit by ``record.py``, used by the oracles that have
no closed form."""

from __future__ import annotations

import functools
import json
import os

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@functools.cache
def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)
