"""Shared test settings: the hypothesis profile of the property tests."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    # derandomize: the same examples on every run, so a failure reproduces;
    # deadline=None: the time per example swings with the host's CPU speed;
    # max_examples bounds what the property tests add to the quick loop.
    settings.register_profile("irpdg", derandomize=True, deadline=None,
                              max_examples=200)
    settings.load_profile("irpdg")
