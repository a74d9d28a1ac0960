"""An access's application locks are a collection of lock names, never a string.

``LocksetDetector(extra_locks_by_access={id: ...})`` once read a bare
``"lockA"`` as the set of its characters, so ``"lockA"`` and ``"lockB"``
shared ``l``, ``o``, ``c`` and ``k`` and two writes under different locks went
unflagged.  A value that is not an iterable of lock names is now refused when
the detector is built.
"""

import pytest

from repro.detectors.lockset import LocksetDetector
from repro.memory.consistency import AccessKind
from tests.detectors.test_baseline_detectors import build_trace

W = AccessKind.WRITE


def _two_writes():
    """Writes by ranks 0 and 1 to one cell, with access ids 0 and 1."""
    trace = build_trace([(0, 0, W, 1.0), (1, 0, W, 2.0)])
    assert [access.access_id for access in trace] == [0, 1]
    return trace


@pytest.mark.parametrize(
    "locks",
    [
        {0: ["lockA"], 1: ["lockB"]},
        {0: ("lockA",), 1: frozenset({"lockB"})},
        {0: {"lockA", "lock"}, 1: ["lockB"]},
    ],
)
def test_writes_under_different_locks_are_flagged(locks):
    detector = LocksetDetector(model_nic_locks=False, extra_locks_by_access=locks)
    assert detector.detect(_two_writes(), 3).count() == 1


def test_writes_under_a_common_lock_are_not():
    locks = {0: ["lockA", "L"], 1: ("L", "lockB")}
    detector = LocksetDetector(model_nic_locks=False, extra_locks_by_access=locks)
    assert detector.detect(_two_writes(), 3).count() == 0


@pytest.mark.parametrize(
    "value",
    ["lockA", b"lockA", 7, None, ["lockA", 3], [("lockA",)]],
)
def test_a_value_that_is_not_lock_names_is_refused_at_construction(value):
    with pytest.raises(TypeError, match="access 1"):
        LocksetDetector(
            model_nic_locks=False, extra_locks_by_access={0: ["lockA"], 1: value}
        )


def test_the_string_form_is_refused_rather_than_silently_unflagged():
    with pytest.raises(TypeError, match="'lockA'"):
        LocksetDetector(
            model_nic_locks=False, extra_locks_by_access={0: "lockA", 1: "lockB"}
        )
