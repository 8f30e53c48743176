"""The benchmark's three workloads, built through ``repro``'s public API.

Each build function turns a seed into a ready-to-run :class:`Prepared` cluster:
XMark generation, fragmenting, placement (every ``host_document`` builds a
DataGuide), client transaction streams, and view registration. Everything
a build function does is the benchmark's set-up; ``Prepared.cluster.run()`` is
the measured run phase.

The seed reaches the XMark generator, the transaction streams and
``SystemConfig.seed`` (network jitter, client think times). The cluster
receives only the generated documents and transactions.

All workloads are closed loop, as DTXTester is: a client submits its next
transaction only after the previous one finished (``Client`` waits for
the outcome, then thinks). Aborted transactions are not resubmitted
(``max_restarts=0``, the paper's setting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.distribution.replication import replica_placement
from repro.sim.rng import substream
from repro.update import ChangeOp

# Module imports: the traced run wraps the generator and DTXTester, and
# calls through the module attribute resolve to the wrapped functions.
from repro.workload import generator as dtxtester
from repro.workload import xmark
from repro.xml import E, doc

XMARK_READ_TX_PER_CLIENT = 40
XMARK_WRITE_TX_PER_CLIENT = 25
HOT_GROUPS = 16
HOT_CLIENTS_PER_GROUP = 8
HOT_TX_PER_CLIENT = 3
HOT_OPS_PER_TX = 8


@dataclass
class Prepared:
    """One built workload instance: the cluster plus what checks need."""

    cluster: DTXCluster
    #: label -> Transaction, for the committed-payload byte count
    transactions: dict = field(default_factory=dict)
    #: (view host, [doc names]) whose shadows must equal the primaries
    views: list = field(default_factory=list)
    #: simulated ms the run continues after the last client finished, so
    #: in-flight messages (and view pushes) land before the checks
    drain_ms: float = 5.0


def _add_streams(cluster: DTXCluster, streams: list, sites: list) -> dict:
    """Attach client ``i`` to ``sites[i]`` with ``streams[i]``."""
    by_label = {}
    for i, (txs, site) in enumerate(zip(streams, sites)):
        for tx in txs:
            by_label[tx.label] = tx
        cluster.add_client(f"c{i}", site, txs)
    return by_label


def _xmark_cluster(
    seed: int,
    *,
    db_bytes: int,
    n_sites: int,
    factor: int,
    spec: dtxtester.WorkloadSpec,
    system: SystemConfig,
) -> tuple[DTXCluster, dict, list]:
    """XMark document split into ``n_sites`` fragments, each placed on
    ``factor`` consecutive sites (primary first); DTXTester clients
    round-robin over the sites."""
    base, _ = xmark.generate_xmark(db_bytes, seed=seed)
    fragments = xmark.xmark_fragments(base, n_sites)
    site_ids = [f"s{i + 1}" for i in range(n_sites)]
    cluster = DTXCluster(protocol="xdgl", config=system)
    for sid in site_ids:
        cluster.add_site(sid)
    for i, frag in enumerate(fragments):
        cluster.replicate_document(frag, replica_placement(i, site_ids, factor))
    tester = dtxtester.DTXTester(spec, fragments)
    placement = tester.assign_clients_to_sites(site_ids)
    streams = [tester.transactions_for_client(c) for c in range(spec.n_clients)]
    by_label = _add_streams(cluster, streams, [placement[c] for c in range(spec.n_clients)])
    return cluster, by_label, [f.name for f in fragments]


def build_xmark_read(seed: int, tracing: bool = False) -> Prepared:
    """Read-mostly mix of paper §3 with a people view at s4."""
    system = SystemConfig().with_(
        seed=seed,
        replication_factor=2,
        replica_write_policy="primary",
        replica_read_policy="nearest",
        group_commit_window_ms=0.5,
        view_staleness_ms=30.0,
        client_think_ms=1.0,
        tracing=tracing,
    )
    spec = dtxtester.WorkloadSpec(
        n_clients=16,
        tx_per_client=XMARK_READ_TX_PER_CLIENT,
        ops_per_tx=4,
        update_tx_ratio=0.2,
        update_op_ratio=0.2,
        seed=seed,
    )
    cluster, by_label, docs = _xmark_cluster(
        seed, db_bytes=24_000, n_sites=4, factor=2, spec=spec, system=system
    )
    cluster.register_view("people", "/site/people//*", docs, host="s4")
    # Several view push periods plus network delays: the shadows catch
    # up with the last commits before the checks compare them.
    return Prepared(cluster, by_label, views=[("s4", docs)], drain_ms=50.0)


def build_xmark_write(seed: int, tracing: bool = False) -> Prepared:
    """Every transaction updates; factor-3 quorum regime (W=2, R=2)."""
    system = SystemConfig().with_(
        seed=seed,
        replication_factor=3,
        replica_write_policy="quorum",
        replica_read_policy="quorum",
        write_quorum_w=2,
        read_quorum_r=2,
        failure_detector="perfect",
        client_think_ms=1.0,
        tracing=tracing,
    )
    spec = dtxtester.WorkloadSpec(
        n_clients=12,
        tx_per_client=XMARK_WRITE_TX_PER_CLIENT,
        ops_per_tx=4,
        update_tx_ratio=1.0,
        update_op_ratio=0.5,
        seed=seed,
    )
    cluster, by_label, _ = _xmark_cluster(
        seed, db_bytes=60_000, n_sites=4, factor=3, spec=spec, system=system
    )
    return Prepared(cluster, by_label)


def build_hot_contended(seed: int, tracing: bool = False) -> Prepared:
    """Write-all hot document at s1+s2; every coordinator at s3."""
    system = SystemConfig().with_(
        seed=seed,
        replica_write_policy="all",
        client_think_ms=0.0,
        tracing=tracing,
    )
    cluster = DTXCluster(protocol="xdgl", config=system)
    hot = doc("hot", E("hot", *[E(f"v{g}", text="0") for g in range(HOT_GROUPS)]))
    cluster.add_site("s1")
    cluster.add_site("s2")
    cluster.add_site("s3")  # pure coordinator site
    cluster.replicate_document(hot, ["s1", "s2"])
    rng = substream(seed, "perfbench", "hot_contended")
    streams = []
    for g in range(HOT_GROUPS):
        for c in range(HOT_CLIENTS_PER_GROUP):
            streams.append([
                Transaction(
                    [
                        Operation.update(
                            "hot", ChangeOp(f"/hot/v{g}", rng.randrange(1_000_000))
                        )
                        for _ in range(HOT_OPS_PER_TX)
                    ],
                    label=f"g{g}c{c}t{t}",
                )
                for t in range(HOT_TX_PER_CLIENT)
            ])
    by_label = _add_streams(cluster, streams, ["s3"] * len(streams))
    return Prepared(cluster, by_label)


WORKLOADS: dict[str, Callable[[int], Prepared]] = {
    "xmark_read": build_xmark_read,
    "xmark_write": build_xmark_write,
    "hot_contended": build_hot_contended,
}
