"""Online detection equals post-mortem replay, across the corpora.

The paper's two deployments (Section V-B) run one check kernel: in the
communication library, as the run goes, and in the pre-compiler, over the
recorded trace afterwards.  Every labelled pattern and the two-sided /
verbs workloads, at seeds 0 and 1, must therefore report the same
*multiset* of race addresses both ways — one signal online is one finding
offline.
"""

from collections import Counter

import pytest

from repro.detectors import PostMortemDualClockDetector
from repro.workloads import RPCEchoWorkload, SendRecvStencilWorkload, VerbsStencilWorkload
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

BUILDERS = {pattern.name: pattern.build for pattern in pattern_corpus() + rmw_pattern_corpus()}
BUILDERS.update(
    {
        "rpc-echo": RPCEchoWorkload().build,
        "rpc-echo-racy-buffer-reuse": RPCEchoWorkload(racy_buffer_reuse=True).build,
        "send-recv-stencil": SendRecvStencilWorkload().build,
        "verbs-stencil": VerbsStencilWorkload().build,
    }
)
SEEDS = (0, 1)


def _online_and_offline(name, seed):
    runtime = BUILDERS[name](seed)
    result = runtime.run()
    offline = PostMortemDualClockDetector().detect(
        runtime.recorder.accesses(),
        runtime.config.world_size,
        syncs=runtime.recorder.syncs(),
    )
    online = Counter(record.address for record in result.race_records())
    return online, Counter(finding.address for finding in offline.findings)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_postmortem_replay_reports_the_online_race_addresses(name, seed):
    online, offline = _online_and_offline(name, seed)
    assert offline == online


def test_the_corpora_are_not_vacuous():
    """Most runs race, so the equality above compares real reports."""
    races = [
        sum(_online_and_offline(name, seed)[0].values())
        for name in sorted(BUILDERS)
        for seed in SEEDS
    ]
    assert len(races) == 46
    assert sum(races) >= 150
    assert sum(1 for count in races if count) >= 20
