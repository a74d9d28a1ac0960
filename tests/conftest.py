"""Suite-wide Hypothesis profiles.

Tier-1 runs Hypothesis' default profile.  ``pytest --hypothesis-profile=nightly``
selects the deep profile the nightly CI job uses on property tests that read
their example count from the active profile.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=500)
