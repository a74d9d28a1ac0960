"""The consistency-knob registry is the one declaration every consumer follows.

* **Coherence** — registry names, in order, are exactly the knob fields of
  ``RuntimeConfig`` and ``CampaignConfig``, the campaign parser's knob flags,
  ``RunResult.knobs`` and the trace ``run_info`` knob keys.  Adding a knob anywhere but the registry (plus the two typed
  dataclass fields) fails here.
* **One validator per knob, three entry points** — the config field,
  ``DSMRuntime.set_knob`` and ``CampaignConfig`` all reject the same
  illegal values.
* **One home** — a knob is a field of ``RuntimeConfig`` (and of
  ``CampaignConfig``, which overrides it) and nowhere else; the NICs and
  verbs contexts read the runtime's own config.
* **Config ownership** — a runtime resolves knobs on its own copy of the
  configuration, never through to the caller's objects.
* **One writer** — that copy is frozen: ``set_knob`` is the only way to
  change it, so every value the NICs read has been validated.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.core.races import SignalPolicy
from repro.explore.campaign import CampaignConfig, build_parser
from repro.runtime.knobs import KNOBS
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

NAMES = [knob.name for knob in KNOBS]

#: Every config field that is NOT a consistency knob, with a file outside
#: ``tests/`` that sets it by keyword: a setting needs a caller.  A new field
#: lands either here — naming the traffic that needs it — or in the registry,
#: never silently in between.
RUNTIME_OTHER_FIELDS = {
    "world_size": "examples/quickstart.py",
    "public_memory_cells": "src/repro/workloads/stencil.py",
    "seed": "examples/quickstart.py",
    "topology": "examples/quickstart.py",
    "latency": "src/repro/workloads/racy_patterns.py",
    "detector": "benchmarks/bench_overhead_detection.py",
    "ud_max_retransmits": "docs/verbs.md",
    "signal_policy": "examples/quickstart.py",
    "trace_spans": "src/repro/obs/__main__.py",
    "obs_wall_clock": "docs/observability.md",
    "verbs_cq_capacity": "docs/verbs.md",
    "verbs_max_send_wr": "docs/verbs.md",
    "verbs_max_recv_wr": "docs/verbs.md",
}
CAMPAIGN_OTHER_FIELDS = {
    "strategy", "budget", "seed", "workers", "reorder_probability",
    "reorder_aggressiveness", "quantum", "tie_shuffle_probability",
    "drop_probability", "duplicate_probability", "branch_factor",
    "max_branch_points", "treat_rmw_pairs_as_ordered", "critical_path",
}
CAMPAIGN_OTHER_FLAGS = {
    "--help", "--corpus", "--patterns", "--strategy", "--budget", "--seed",
    "--workers", "--branch-factor", "--max-branch-points",
    "--reorder-probability", "--reorder-aggressiveness", "--quantum",
    "--drop-rate", "--duplicate-rate", "--critical-path", "--json",
    "--markdown", "--minimize-dir", "--expect-consistent",
}

#: One illegal value per knob (config field, ``set_knob``, ``CampaignConfig``).
INVALID = {
    "clock_transport": "carrier-pigeon",
    "clock_wire": "zip",
    "cq_moderation": "maybe",
    "detector_epochs": "auto",
    "transport": "uc",
}

#: One value of the wrong type per knob: refused, never coerced (a truthy
#: ``1`` is not ``True``, ``True`` is not ``"on"``).
WRONG_TYPE = {
    "clock_transport": True,
    "clock_wire": 8,
    "cq_moderation": 1,
    "detector_epochs": True,
    "transport": 0,
}


def tiny_runtime(**overrides):
    runtime = DSMRuntime(RuntimeConfig(world_size=2, **overrides))
    runtime.declare_scalar("x", owner=1, initial=0)

    def program(api):
        yield from api.put("x", api.rank)

    runtime.set_spmd_program(program)
    return runtime


def knob_fields(config_class, other_fields):
    return [
        field.name
        for field in dataclasses.fields(config_class)
        if field.name not in other_fields
    ]


class TestCoherence:
    def test_invalid_table_covers_every_knob(self):
        assert list(INVALID) == NAMES
        assert list(WRONG_TYPE) == NAMES

    def test_config_dataclasses_declare_exactly_the_registry(self):
        assert knob_fields(RuntimeConfig, RUNTIME_OTHER_FIELDS) == NAMES
        assert knob_fields(CampaignConfig, CAMPAIGN_OTHER_FIELDS) == NAMES

    def test_no_other_dataclass_declares_a_knob(self):
        homes = set()
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            if module_info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(module_info.name)
            for _, cls in inspect.getmembers(module, dataclasses.is_dataclass):
                if cls.__module__ == module.__name__:
                    for field in dataclasses.fields(cls):
                        if field.name in NAMES:
                            homes.add(cls.__qualname__)
        assert homes == {"RuntimeConfig", "CampaignConfig"}

    @pytest.mark.parametrize("name, setter", sorted(RUNTIME_OTHER_FIELDS.items()))
    def test_every_other_field_has_a_caller_outside_tests(self, name, setter):
        assert not setter.startswith("tests/")
        text = (Path(__file__).resolve().parents[2] / setter).read_text()
        assert re.search(rf"\b{name}\s*=[^=]", text), f"{setter} does not set {name}"

    def test_campaign_parser_flags(self):
        flags = [
            action.option_strings[-1]
            for action in build_parser()._actions
            if action.option_strings[-1] not in CAMPAIGN_OTHER_FLAGS
        ]
        assert flags == [knob.flag for knob in KNOBS]

    def test_provenance_keys(self):
        runtime = tiny_runtime()
        result = runtime.run()
        assert list(result.knobs) == NAMES
        assert list(runtime.recorder.run_info()) == ["world_size", "seed"] + NAMES

    def test_matrix_values_are_legal_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_DETECTOR_EPOCHS", raising=False)
        defaults = tiny_runtime().knobs()
        for knob in KNOBS:
            values = [knob.validate(text) for text in knob.matrix_values]
            assert values[0] == defaults[knob.name], "the reference is the default"


@pytest.mark.parametrize("name", NAMES)
class TestValidation:
    def test_config_field_rejects_illegal_value(self, name):
        with pytest.raises(ValueError, match=name):
            DSMRuntime(RuntimeConfig(world_size=2, **{name: INVALID[name]}))

    def test_set_knob_rejects_illegal_value(self, name):
        runtime = tiny_runtime()
        before = runtime.knobs()
        with pytest.raises(ValueError, match=name):
            runtime.set_knob(name, INVALID[name])
        assert runtime.knobs() == before

    def test_campaign_config_rejects_illegal_spelling(self, name):
        with pytest.raises(ValueError, match=name):
            CampaignConfig(**{name: INVALID[name]})

    def test_config_field_rejects_a_value_of_the_wrong_type(self, name):
        with pytest.raises(ValueError, match=name):
            DSMRuntime(RuntimeConfig(world_size=2, **{name: WRONG_TYPE[name]}))

    def test_set_knob_rejects_a_value_of_the_wrong_type(self, name):
        runtime = tiny_runtime()
        before = runtime.knobs()
        with pytest.raises(ValueError, match=name):
            runtime.set_knob(name, WRONG_TYPE[name])
        assert runtime.knobs() == before

    def test_campaign_config_rejects_a_value_of_the_wrong_type(self, name):
        with pytest.raises(ValueError, match=name):
            CampaignConfig(**{name: WRONG_TYPE[name]})

    def test_set_knob_after_run_is_rejected(self, name):
        runtime = tiny_runtime()
        value = runtime.run().knobs[name]
        with pytest.raises(RuntimeError, match="before run"):
            runtime.set_knob(name, value)


def test_set_knob_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown knob"):
        tiny_runtime().set_knob("warp_drive", "on")


class TestCqModerationSpellings:
    """``"off"`` is a truthy string: it must never turn moderation ON."""

    @pytest.mark.parametrize(
        "spelling,enabled", [("off", False), ("on", True), (False, False), (True, True)]
    )
    def test_all_entry_points_agree(self, spelling, enabled):
        built = tiny_runtime(cq_moderation=spelling)
        assert built.config.cq_moderation is enabled
        assert all(c.nic.config.cq_moderation is enabled for c in built.verbs_contexts)

        switched = tiny_runtime(cq_moderation=not enabled)
        switched.set_knob("cq_moderation", spelling)
        assert switched.knobs()["cq_moderation"] is enabled
        assert all(
            c.nic.config.cq_moderation is enabled for c in switched.verbs_contexts
        )

        (setting,) = CampaignConfig(cq_moderation=spelling).knob_settings()
        assert setting == ("cq_moderation", enabled)


class TestConfigOwnership:
    def test_runtimes_built_from_one_config_do_not_leak_into_each_other(self):
        cfg = RuntimeConfig(world_size=2)
        pristine = dataclasses.asdict(cfg)
        DSMRuntime(
            cfg, clock_transport="piggyback", clock_wire="delta", transport="ud",
            detector_epochs="off",
        )
        assert dataclasses.asdict(cfg) == pristine

        b = DSMRuntime(cfg)
        assert b.knobs()["clock_transport"] == "roundtrip"
        assert b.knobs()["clock_wire"] == "full"
        assert b.knobs()["transport"] == "rc"
        assert b.config.detector is not cfg.detector
        # ...and a third runtime may name a different wire format.
        assert DSMRuntime(cfg, clock_wire="truncated").knobs()["clock_wire"] == "truncated"
        assert dataclasses.asdict(cfg) == pristine

    def test_set_knob_stays_inside_the_runtime(self):
        cfg = RuntimeConfig(world_size=2)
        pristine = dataclasses.asdict(cfg)
        runtime = DSMRuntime(cfg)
        for name, value in [
            ("clock_transport", "piggyback"),
            ("clock_wire", "delta"),
            ("detector_epochs", "off"),
        ]:
            runtime.set_knob(name, value)
        assert dataclasses.asdict(cfg) == pristine
        # The NICs, the verbs contexts and the detector read the runtime's
        # own copy.
        assert all(nic.config is runtime.config for nic in runtime.nics)
        assert all(
            context.nic.config is runtime.config
            for context in runtime.verbs_contexts
        )
        assert runtime.detector.config is runtime.config.detector
        assert runtime.nics[0].config.clock_transport == "piggyback"
        assert runtime.config.detector.epochs is False

    def test_switching_the_clock_transport_leaves_the_detector_config_alone(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        detector_config = runtime.config.detector
        before = dataclasses.asdict(detector_config)
        for mode in ("piggyback", "roundtrip", "piggyback"):
            runtime.set_knob("clock_transport", mode)
            assert runtime.config.detector is detector_config
            assert runtime.detector.config is detector_config
            assert dataclasses.asdict(detector_config) == before


#: One bare assignment per ``RuntimeConfig`` field, in field order.  While a
#: built runtime's config was mutable, each was accepted without a check, and
#: the four commented ones left the run wrong.
BARE_ASSIGNMENTS = {
    "world_size": 3,
    "public_memory_cells": 8,
    "seed": 1,
    "topology": "ring",
    "latency": "uniform",
    "detector": None,
    "ud_max_retransmits": 2,
    "clock_transport": "piggyback",
    "clock_wire": "delta",
    # a truthy string: turned moderation ON
    "cq_moderation": "off",
    # left ``detector.config.epochs`` at True while ``knobs()`` said "off"
    "detector_epochs": "off",
    # ran RC while ``RunResult.knobs`` said "UD"
    "transport": "UD",
    "signal_policy": SignalPolicy.WARN,
    "trace_spans": True,
    "obs_wall_clock": True,
    "verbs_cq_capacity": 4,
    # accepted after the build's own check had run
    "verbs_max_send_wr": 0,
    "verbs_max_recv_wr": 1,
}


class TestOneWriter:
    def test_the_table_names_every_field_once(self):
        fields = [field.name for field in dataclasses.fields(RuntimeConfig)]
        assert list(BARE_ASSIGNMENTS) == fields
        assert len(fields) == 18

    @pytest.mark.parametrize(
        "name, value", list(BARE_ASSIGNMENTS.items()), ids=list(BARE_ASSIGNMENTS)
    )
    def test_a_built_runtime_refuses_bare_assignment(self, name, value):
        runtime = tiny_runtime()
        before, knobs = dataclasses.asdict(runtime.config), runtime.knobs()
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
            setattr(runtime.config, name, value)
        assert dataclasses.asdict(runtime.config) == before
        result = runtime.run()
        assert result.knobs == knobs
        assert runtime.detector.config.epochs is (knobs["detector_epochs"] == "on")
        assert all(c.nic.config.cq_moderation is False for c in runtime.verbs_contexts)
