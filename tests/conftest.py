"""Hypothesis profiles: tier-1 draws the same examples in every run.

The default profile, ``repeatable``, derandomizes every property and keeps no
example database, so two runs of the suite give the same counts.  A separate
exploratory run selects ``HYPOTHESIS_PROFILE=explore``, which draws new random
examples each time and keeps Hypothesis's database in ``.hypothesis/`` so a
counterexample it finds replays on the next exploratory run::

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest -q tests/test_properties.py

A property's own ``@settings`` (its example count, its deadline) applies under
either profile.

The ``philox_keys`` fixture counts bit-generator constructions.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))


@pytest.fixture
def philox_keys(monkeypatch) -> list:
    """The ``key`` of every ``np.random.Philox`` made during the test, in order."""
    keys = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        keys.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return keys
