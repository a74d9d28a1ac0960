"""Suite-wide Hypothesis profiles.

Tier-1 runs Hypothesis' default profile.  ``pytest --hypothesis-profile=nightly``
selects the deep profile the nightly CI job uses on property tests that read
their example count from the active profile.  The knob promise
(``tests/detectors/test_knob_promise.py``) reads only which profile is active
and keeps its own counts for each regime.
"""

from hypothesis import settings

# On CI, Hypothesis' own default profile derandomizes; the nightly profile
# would inherit that and replay one fixed stream every night.  A failure
# prints the blob that ``@reproduce_failure`` replays.
settings.register_profile("nightly", max_examples=500, derandomize=False, print_blob=True)
