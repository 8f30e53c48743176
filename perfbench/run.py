"""Steady-state benchmark of the DTX simulator (see perfbench/README.md).

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload xmark_read --seed 1 --seconds 30 --trace 0

With ``--workload`` the process runs that one workload and prints, as its
last stdout line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced round with ``--trace 1``. Without ``--workload`` it
runs every workload in a fresh process per (workload, mode) and prints
their reports. Any failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30

#: Rounds whose simulated results form a run's sample. Fixed per workload
#: (never time-dependent) so a seed always yields the same simulated
#: metrics; each round draws its inputs from its own sub-seed.
SAMPLE_ROUNDS = {"xmark_read": 24, "xmark_write": 12, "hot_contended": 14}

#: Untraced repetitions of round 0 that the traced round is compared with.
BASELINE_ROUNDS = 3

END_TO_END = {
    "wall_tx_per_s": "tx/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tx_per_s": "tx/sim_s",
    "sim_response_p50_ms": "sim_ms",
    "sim_response_p95_ms": "sim_ms",
    "tx_commit_ratio": "ratio",
}


class CheckFailed(Exception):
    """An output check failed; the run must not report a result."""


def _add_sources_to_path() -> None:
    """Make ``repro`` (from ``src/``) and the benchmark modules importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckFailed(f"no program sources at {SRC.relative_to(HERE.parent)}/repro")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


@dataclass
class Round:
    """One built-and-run workload instance."""

    sub_seed: int
    setup_s: float
    run_s: float
    committed: int
    aborted: int
    failed: int
    submitted: int
    sim_ms: float  # when the last committed transaction finished
    responses: list = field(repr=False, default_factory=list)
    digest: str = ""
    messages: int = 0

    def sim_key(self) -> tuple:
        """Everything simulated: equal for equal inputs, whatever the speed."""
        return (
            self.committed, self.aborted, self.failed, self.submitted,
            self.sim_ms, tuple(self.responses), self.digest, self.messages,
        )


def sub_seeds(seed: int, n: int) -> list[int]:
    """The input seeds of a run's ``n`` sample rounds."""
    from repro.sim.rng import substream

    rng = substream(seed, "perfbench", "rounds")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def run_round(build, sub_seed: int, instruments=None):
    """Build (set-up) then run one workload instance.

    With ``instruments`` the round is the traced one: span wrappers are
    installed around set-up and run only, so the output checks and the
    digest below stay untimed. Returns ``(Round, prepared, result)``.
    """
    from checks import state_digest
    from repro.xpath.parser import clear_parse_cache

    # Every round starts as a fresh process would: empty parse memo, and
    # the previous round's garbage collected outside the timed regions.
    clear_parse_cache()
    gc.collect()
    if instruments is not None:
        instruments.install()
    try:
        t0 = time.perf_counter()
        prepared = build(sub_seed, tracing=instruments is not None)
        t1 = time.perf_counter()
        if instruments is not None:
            instruments.attach(prepared)
        result = prepared.cluster.run(drain_ms=prepared.drain_ms)
        t2 = time.perf_counter()
    finally:
        if instruments is not None:
            instruments.uninstall()
    committed = result.committed
    rnd = Round(
        sub_seed=sub_seed,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        committed=len(committed),
        aborted=len(result.aborted),
        failed=len(result.failed),
        submitted=sum(1 + r.restarts for r in result.records),
        sim_ms=result.completion_time_ms(),
        responses=sorted(r.response_ms for r in committed),
        digest=state_digest(prepared.cluster),
        messages=result.network_messages,
    )
    return rnd, prepared, result


def percentile_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` quantile among ``n`` samples."""
    return min(n, max(1, -(-round(q * 1000) * n // 1000)))


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[percentile_rank(len(ordered), q) - 1]


def machine() -> dict:
    return {"cpu_count": os.cpu_count() or 0, "python": platform.python_version()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ----------------------------------------------------------------------

def run_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list, list]:
    """Sample rounds, then repeats of them until ``seconds`` have passed."""
    import workloads
    from checks import check_round

    build = workloads.WORKLOADS[name]
    seeds = sub_seeds(seed, SAMPLE_ROUNDS[name])
    rounds: list[Round] = []
    lines: list[str] = []
    t_start = time.perf_counter()
    while len(rounds) < len(seeds) or time.perf_counter() - t_start < seconds:
        k = len(rounds) % len(seeds)
        rnd, prepared, result = run_round(build, seeds[k])
        errors = check_round(prepared, result)
        if len(rounds) >= len(seeds) and rnd.sim_key() != rounds[k].sim_key():
            errors.append(f"round {len(rounds)}: simulated results differ from round {k}")
        if errors:
            raise CheckFailed("; ".join(errors))
        rounds.append(rnd)
    sample = rounds[: len(seeds)]
    committed = sum(r.committed for r in sample)
    submitted = sum(r.submitted for r in sample)
    aborted = sum(r.aborted for r in sample)
    failed = sum(r.failed for r in sample)
    sim_s = sum(r.sim_ms for r in sample) / 1000.0
    responses = sorted(x for r in sample for x in r.responses)
    wall = [r.committed / r.run_s for r in rounds]
    metrics = {
        "wall_tx_per_s": statistics.median(wall),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tx_per_s": committed / sim_s,
        "sim_response_p50_ms": percentile(responses, 0.50),
        "sim_response_p95_ms": percentile(responses, 0.95),
        "tx_commit_ratio": committed / submitted,
    }
    lines += [
        f"rounds: {len(rounds)} ({len(seeds)} sample rounds, then repeats); "
        f"run wall {sum(r.run_s for r in rounds):.2f} s, "
        f"set-up wall {sum(r.setup_s for r in rounds):.2f} s",
        f"wall_tx_per_s = median over {len(rounds)} rounds of committed / run wall "
        f"(quartiles {_quartiles(wall)})",
        f"sim_tx_per_s = {committed} committed / {sim_s:.4f} simulated s",
        f"sim_response_p50_ms, sim_response_p95_ms over {len(responses)} committed "
        f"transactions ({len(responses) - percentile_rank(len(responses), 0.95)} "
        "beyond the p95)",
        f"tx_commit_ratio = {committed} committed / {submitted} submitted; "
        f"tx_failed_ratio = ({aborted} aborted + {failed} failed) / {submitted} = "
        f"{_ratio(aborted + failed, submitted):.6f}",
    ]
    lines += [f"state_digest[round {k}] = {r.digest}" for k, r in enumerate(sample)]
    return metrics, lines, rounds


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g} / {q2:.4g} / {q3:.4g}"


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------

class _DigestSink:
    """Stands in for ``TraceRecorder.entries``: counts dispatched kernel
    items and folds them into the same sha256 ``trace_digest`` computes,
    without keeping one string per event in memory."""

    def __init__(self) -> None:
        self.count = 0
        self._hash = hashlib.sha256()

    def append(self, entry: tuple) -> None:
        t, desc = entry
        self._hash.update(f"{t!r} {desc}\n".encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Instruments:
    """The traced round's recorders: layer spans and kernel events."""

    def __init__(self, extra_modules: tuple) -> None:
        from layers import SpanRecorder
        from repro.verify import TraceRecorder

        self.spans = SpanRecorder(extra_modules=extra_modules)
        self.kernel = TraceRecorder()
        self.kernel.entries = _DigestSink()
        self.setup_bytes_stored = 0

    def install(self) -> None:
        self.spans.install()

    def attach(self, prepared) -> None:
        self.kernel.attach(prepared.cluster.env)
        self.setup_bytes_stored = self.spans.bytes_stored

    def uninstall(self) -> None:
        self.spans.uninstall()


def run_traced(name: str, seed: int) -> tuple[dict, list, list]:
    """Untraced repeats of round 0, then the same round traced."""
    import workloads
    from checks import check_round
    from layers import LAYERS
    from repro.core.site import aggregate_site_stats
    from repro.obs import critical_path_report, span_forest_errors
    from repro.xpath.parser import parse_cache_stats

    build = workloads.WORKLOADS[name]
    sub_seed = sub_seeds(seed, SAMPLE_ROUNDS[name])[0]
    rounds: list[Round] = []
    for _ in range(BASELINE_ROUNDS):
        rnd, prepared, result = run_round(build, sub_seed)
        errors = check_round(prepared, result)
        if rounds and rnd.sim_key() != rounds[0].sim_key():
            errors.append("untraced repeats of one round differ in simulated results")
        if errors:
            raise CheckFailed("; ".join(errors))
        rounds.append(rnd)

    inst = Instruments(extra_modules=(workloads,))
    rnd, prepared, result = run_round(build, sub_seed, instruments=inst)
    hits, misses = parse_cache_stats()
    cluster = prepared.cluster
    sites = list(cluster.sites.values())
    totals = aggregate_site_stats(s.stats for s in sites)
    net = cluster.network.stats
    kinds = net.by_kind
    report = critical_path_report(result.spans, per_tx_limit=0)
    phase = report["phase_share"]
    by_name, by_layer, errors = inst.spans.aggregate()
    errors += [f"span forest: {e}" for e in span_forest_errors(result.spans)[:10]]
    errors += check_round(prepared, result)
    if rnd.sim_key() != rounds[0].sim_key():
        errors.append("traced round differs from the untraced round in simulated results")
    wall = rnd.setup_s + rnd.run_s
    core_s = wall - sum(v["self_s"] for v in by_layer.values())
    if core_s < 0:
        errors.append(f"layer self time exceeds the round's wall time by {-core_s:.6f} s")
    if errors:
        raise CheckFailed("; ".join(errors))
    rounds.append(rnd)

    commits = rnd.committed
    run_bytes = inst.spans.bytes_stored - inst.setup_bytes_stored
    payload = sum(
        op.payload_size()
        for r in result.committed
        for op in prepared.transactions[r.label].operations
        if op.is_update
    )
    lock_ops = sum(s.lock_manager.table.lock_ops for s in sites)
    spec_calls = by_layer["protocols"]["calls"]
    untraced_wall = statistics.median(r.setup_s + r.run_s for r in rounds[:-1])
    # name -> (numerator, denominator); the metric is their quotient.
    ratios = {
        "storage.bytes_written_per_commit": (run_bytes, commits),
        "storage.write_amplification": (run_bytes, payload),
        "locking.ops_per_commit": (lock_ops, commits),
        "locking.wakes_per_commit": (totals["waiter_wakes"], commits),
        "locking.grant_ratio": (
            totals["ops_executed"], totals["ops_executed"] + totals["ops_blocked"]
        ),
        "deadlock.victims_per_commit": (result.total_deadlocks, commits),
        "xpath.parse_cache_hit_ratio": (hits, hits + misses),
        "protocols.spec_cache_hit_ratio": (
            totals["spec_cache_hits"], totals["spec_cache_hits"] + spec_calls
        ),
        "sim.events_per_commit": (inst.kernel.entries.count, commits),
        "sim.network.messages_per_commit": (net.messages, commits),
        "sim.network.bytes_per_commit": (net.bytes, commits),
        "distribution.sync_messages_per_commit": (
            kinds.get("ReplicaSyncRequest", 0) + kinds.get("ReplicaSyncBatch", 0), commits
        ),
        "distribution.sync_acks_per_commit": (
            kinds.get("ReplicaSyncAck", 0) + kinds.get("ReplicaSyncBatchAck", 0), commits
        ),
        "distribution.read_repairs_per_quorum_read": (
            totals["read_repairs_sent"], totals["quorum_reads"]
        ),
        "views.hit_ratio": (inst.spans.serves_ok, kinds.get("ViewReadRequest", 0)),
        "trace.overhead_ratio": (wall, untraced_wall),
    }
    for layer, agg in by_layer.items():
        ratios[f"{layer}.calls_per_commit"] = (agg["calls"], commits)
        ratios[f"{layer}.self_share"] = (agg["self_s"], wall)
    ratios["core.self_share"] = (core_s, wall)
    metrics = {k: _ratio(*nd) for k, nd in ratios.items()}
    for layer, agg in by_layer.items():
        metrics[f"{layer}.self_s"] = agg["self_s"]
    metrics["core.self_s"] = core_s
    # Simulated phase shares of committed response time (critical path).
    for metric, ph in PHASE_METRICS.items():
        metrics[metric] = phase[ph]

    lines = [
        f"traced round: sub-seed {sub_seed}, {commits} committed, wall {wall:.4f} s "
        f"(set-up {rnd.setup_s:.4f} s + run {rnd.run_s:.4f} s); untraced median "
        f"{untraced_wall:.4f} s over {len(rounds) - 1} rounds",
        f"spans: {len(inst.spans.start)}; layers {', '.join(LAYERS)} + core "
        "(wall no layer covers)",
        f"state_digest = {rnd.digest} (equal to the untraced rounds)",
        f"schedule_digest = {inst.kernel.entries.hexdigest()} "
        f"({inst.kernel.entries.count} kernel events)",
        f"critical path: {report['committed']} committed, phase shares "
        + ", ".join(f"{p} {v:.4f}" for p, v in phase.items()),
    ]
    lines += [f"{k} = {num:.6g} / {den:.6g}" for k, (num, den) in ratios.items()]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}"
    inst.spans.write_spans(stem.with_suffix(".spans.bin"))
    with open(stem.with_suffix(".trace.json"), "w") as fh:
        json.dump(
            {
                "workload": name, "seed": seed, "sub_seed": sub_seed,
                "machine": machine(), "state_digest": rnd.digest,
                "schedule_digest": inst.kernel.entries.hexdigest(),
                "metrics": metrics,
                "ratios": {k: list(nd) for k, nd in ratios.items()},
                "spans_by_name": by_name,
                "critical_path": report,
            },
            fh, indent=1, sort_keys=True,
        )
    lines.append(f"wrote {stem.with_suffix('.spans.bin').relative_to(HERE.parent)} "
                 f"and {stem.with_suffix('.trace.json').relative_to(HERE.parent)}")
    return metrics, lines, rounds


#: per-layer metric -> critical-path phase (repro.obs.PHASES)
PHASE_METRICS = {
    "locking.sim_wait_share": "lock_wait",
    "sim.network.sim_share": "network",
    "distribution.sim_sync_share": "sync",
    "views.sim_share": "view",
    "update.sim_exec_share": "exec",
    "core.sim_2pc_share": "2pc",
    "core.sim_coord_share": "coord",
    "core.sim_other_share": "other",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_commit"] = "calls/commit"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    units["core.self_s"] = "s"
    units["core.self_share"] = "ratio"
    units.update({
        "storage.bytes_written_per_commit": "B/commit",
        "storage.write_amplification": "ratio",
        "locking.ops_per_commit": "ops/commit",
        "locking.wakes_per_commit": "wakes/commit",
        "locking.grant_ratio": "ratio",
        "deadlock.victims_per_commit": "victims/commit",
        "xpath.parse_cache_hit_ratio": "ratio",
        "protocols.spec_cache_hit_ratio": "ratio",
        "sim.events_per_commit": "events/commit",
        "sim.network.messages_per_commit": "msgs/commit",
        "sim.network.bytes_per_commit": "B/commit",
        "distribution.sync_messages_per_commit": "msgs/commit",
        "distribution.sync_acks_per_commit": "msgs/commit",
        "distribution.read_repairs_per_quorum_read": "ratio",
        "views.hit_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    units.update({m: "ratio" for m in PHASE_METRICS})
    return units


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    try:
        _add_sources_to_path()
        if trace:
            metrics, lines, rounds = run_traced(name, seed)
            units = per_layer_units()
        else:
            metrics, lines, rounds = run_end_to_end(name, seed, seconds)
            units = END_TO_END
    except CheckFailed as exc:
        print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
        return 1
    info = machine()
    print(f"perfbench {name} seed={seed} trace={trace} "
          f"python={info['python']} cpu_count={info['cpu_count']}")
    for line in lines:
        print(f"  {line}")
    for key, unit in units.items():
        print(f"  {key:44s} {metrics[key]:>16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.submitted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload and mode, each in a fresh interpreter."""
    status = 0
    for name in SAMPLE_ROUNDS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            out = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(out[:-1]) if proc.returncode == 0 else proc.stdout, flush=True)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace={trace} exited {proc.returncode}", flush=True)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(SAMPLE_ROUNDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
