"""Hypothesis settings profiles. The default profile runs each property test
at hypothesis' default example count; ``--hypothesis-profile=ci`` runs ten
times as many, for a CI step that names the tests it runs (the profile must be
registered before pytest configures, so this file has to be an initial
conftest: pass a path under tests/ on the command line)."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
