"""One cold authorize's traffic, to the message and the byte.

``benchmarks/e2e`` reports ``msgs_per_authorize`` and
``wire_bytes_per_authorize`` for the two discovery workloads; the
counts are exact and the same on every host, so they are pinned here
too, with Figure 2's: a change that ships more bytes fails tier-1, not
only the benchmark. Each deployment is the one the benchmark (or the
CLI's default ``discover``) builds, the user presenting their entry
credential. A change that ships fewer bytes updates these numbers and
docs/PROTOCOL.md's cost table together.

The push grammar behind the numbers is docs/PROTOCOL.md section 4: each
home answers its goal with one ``gem_answers`` push, whose delegations
in full name their principals, roles and discovery tags by position in the
push's table.
"""

import dataclasses

import pytest

from repro.core.delegation import Delegation
from repro.workloads import topology
from repro.workloads.scenarios import (
    build_distributed_case_study,
    build_distributed_federation,
    deploy_coalition,
)


def _figure2():
    d = build_distributed_case_study(seed=1)
    return d.network, d.run_steps_1_to_5


def _federation():
    fed = build_distributed_federation(domains=6, users_per_domain=2,
                                       seed=1)
    return fed.network, lambda: fed.authorize(5, 0, 0)


def _scc():
    workload = topology.make_scc_heavy(6, 6, seed=1)
    # As the benchmark builds it: each credential through its wire form.
    fresh = [(Delegation.from_dict(delegation.to_dict()), supports)
             for delegation, supports in workload.delegations]
    dep = deploy_coalition(dataclasses.replace(workload, delegations=fresh))
    return dep.network, lambda: dep.authorize(max_remote_queries=2048)


@pytest.mark.parametrize("build,messages,wire_bytes", [
    (_figure2, 4, 4997),
    (_federation, 12, 11184),
    (_scc, 12, 21780),
], ids=["figure2", "disc_fed", "disc_scc"])
def test_a_cold_authorize_moves_exactly(build, messages, wire_bytes):
    network, authorize = build()
    network.reset_counters()
    assert authorize() is not None
    assert (network.totals.messages, network.totals.bytes) \
        == (messages, wire_bytes)
    # Half the messages are goals out, half the pushes back.
    topics = network.topic_summary("notify:gem_")
    assert {topic: summary["messages"] for topic, summary
            in topics.items()} == {"eval": messages // 2,
                                   "answers": messages // 2}
