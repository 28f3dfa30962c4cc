"""Hypothesis settings profiles, and the state each test starts from.

The default profile runs each property test at hypothesis' default example
count; ``--hypothesis-profile=ci`` runs ten times as many, for a CI step that
names the tests it runs (the profile must be registered before pytest
configures, so this file has to be an initial conftest: pass a path under
tests/ on the command line)."""

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=1000)


@pytest.fixture(autouse=True)
def nothing_kept_from_an_earlier_test():
    """Start each test with nothing kept between calls, as in a new process,
    so that no test that pins a route, a step count or a memo's contents
    depends on the tests before it."""
    from compcount import errors

    errors.forget()
