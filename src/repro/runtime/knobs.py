"""The consistency-knob registry: every consistency knob, declared once.

The paper detects races "only based on logical clocks", so these knobs may
change traffic, bytes and timing.  What they promise is narrower than "never
a different verdict": a knob never changes the verdict *of a given
execution*.  Online detection equals post-mortem replay under every knob
vector; ``clock_wire``, ``detector_epochs`` and (on a fabric that drops
nothing) ``transport`` leave the race records of the run itself unchanged.
``clock_transport`` and ``cq_moderation`` change timing, so they change
which execution happens: on ``stencil-no-barriers``, roundtrip flags three
halos and piggyback all four.  ``tests/detectors/test_knob_promise.py``
states the promise as P1-P4 and checks it over the product of
:attr:`Knob.matrix_values`.

Everything else is a loop over :data:`KNOBS`: ``DSMRuntime`` resolves each
knob at construction (:meth:`Knob.resolve`), changes it through ``set_knob``
and reports it on ``RunResult.knobs`` and in the trace's ``run_info``;
:mod:`repro.explore.campaign` derives its override validation, command-line
flags and configure hook.

Adding a knob is one entry here plus one typed field on ``RuntimeConfig``
and on ``CampaignConfig`` ("Adding a knob" in ``docs/architecture.md``).
Registry order is the order of the provenance keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Tuple

from repro.net.clock_transport import (
    CLOCK_TRANSPORT_MODES,
    CLOCK_WIRE_FORMATS,
    validate_clock_transport,
    validate_clock_wire,
)
from repro.net.ud_transport import TRANSPORT_MODES, validate_transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import DSMRuntime, RuntimeConfig


@dataclass(frozen=True)
class Knob:
    """One consistency knob.

    Attributes
    ----------
    name:
        The field on ``RuntimeConfig`` and ``CampaignConfig``; :attr:`flag`
        is derived from it.
    validate:
        Returns the canonical value of a value or its command-line spelling
        (``"on"`` is ``True``), or raises ``ValueError``.
    cli:
        ``argparse`` keywords of the campaign flag (help and choices).
    matrix_values:
        The command-line spellings the knob promise draws from; the first
        is the reference value a twin run compares against.
    inherit:
        Where a knob left ``None`` gets its value.
    apply:
        Pushes a value into state kept outside ``RuntimeConfig``: today only
        ``DetectorConfig.epochs``, which a standalone detector also reads.
        Everything else (the NICs, the verbs contexts) reads the runtime's
        ``config`` directly.
    """

    name: str
    validate: Callable[[Any], Any]
    cli: Mapping[str, Any]
    matrix_values: Tuple[str, ...]
    inherit: Optional[Callable[["RuntimeConfig"], Any]] = None
    apply: Optional[Callable[["DSMRuntime", Any], None]] = None

    @property
    def flag(self) -> str:
        """The campaign command-line flag (``--clock-wire``)."""
        return "--" + self.name.replace("_", "-")

    def resolve(self, config: "RuntimeConfig") -> Any:
        """The validated value a runtime built from *config* runs with."""
        value = getattr(config, self.name)
        if value is None and self.inherit is not None:
            value = self.inherit(config)
        return self.validate(value)


# -- validators without a home module -----------------------------------------------


#: The command-line spellings of the two on/off knobs.
ON_OFF = ("on", "off")


def validate_cq_moderation(value: Any) -> bool:
    """``True``/``False`` or their ``"on"``/``"off"`` spellings, as a bool."""
    if isinstance(value, bool):
        return value
    if value in ON_OFF:
        return value == "on"
    raise ValueError(
        f"cq_moderation must be True, False, 'on' or 'off', got {value!r}"
    )


def validate_detector_epochs(mode: Any) -> str:
    """Return *mode* if it is ``"on"`` or ``"off"``, raise ``ValueError`` otherwise."""
    if mode not in ON_OFF:
        raise ValueError(f"detector_epochs must be 'on' or 'off', got {mode!r}")
    return mode


# -- hooks -----------------------------------------------------------------------------


def _inherit_detector_epochs(config: "RuntimeConfig") -> str:
    # The CI slow-path leg sets the environment variable; otherwise keep
    # whatever the DetectorConfig already says.
    from_env = os.environ.get("REPRO_DETECTOR_EPOCHS")
    if from_env is not None:
        return from_env
    return "on" if config.detector.epochs else "off"


def _apply_detector_epochs(runtime: "DSMRuntime", mode: str) -> None:
    # The detector shares this config object; no rebuild needed.
    runtime.config.detector.epochs = mode == "on"


# -- the registry ----------------------------------------------------------------------

_PATTERN_DEFAULT = "(default: the pattern's own configuration)"

KNOBS: Tuple[Knob, ...] = (
    Knob(
        name="clock_transport",
        validate=validate_clock_transport,
        cli={
            "choices": CLOCK_TRANSPORT_MODES,
            "help": f"clock transport for every explored runtime {_PATTERN_DEFAULT}",
        },
        matrix_values=("roundtrip", "piggyback"),
    ),
    Knob(
        name="clock_wire",
        validate=validate_clock_wire,
        cli={
            "choices": CLOCK_WIRE_FORMATS,
            "help": f"clock wire format for every explored runtime {_PATTERN_DEFAULT}",
        },
        matrix_values=("full", "delta", "truncated"),
    ),
    Knob(
        name="cq_moderation",
        validate=validate_cq_moderation,
        cli={
            "choices": ON_OFF,
            "help": "force completion coalescing on or off for every explored "
            f"runtime {_PATTERN_DEFAULT}",
        },
        matrix_values=("off", "on"),
    ),
    Knob(
        name="detector_epochs",
        validate=validate_detector_epochs,
        cli={
            "choices": ON_OFF,
            "help": "force the detector's epoch fast path on or off for every "
            f"explored runtime {_PATTERN_DEFAULT}",
        },
        matrix_values=("on", "off"),
        inherit=_inherit_detector_epochs,
        apply=_apply_detector_epochs,
    ),
    Knob(
        name="transport",
        validate=validate_transport,
        cli={
            "choices": TRANSPORT_MODES,
            "help": "data-message service level for every explored runtime: rc "
            "(reliable connected) or ud (droppable/duplicable datagrams with "
            f"receiver-driven clock resync) {_PATTERN_DEFAULT}",
        },
        matrix_values=("rc", "ud"),
    ),
)

KNOBS_BY_NAME: Mapping[str, Knob] = {knob.name: knob for knob in KNOBS}
