"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Build a dB-tree cluster, run a workload, audit it, and print the
    tree and cluster summary.
``hash-demo``
    The same for the lazy distributed hash table.
``protocols``
    List the available replica-maintenance protocols.
``permute``
    Run the permutation-replay checker: replay permuted delivery
    schedules and assert convergence to the canonical run (see
    :mod:`repro.verify.permute`); ``--selftest`` proves the checker
    catches the paper's item-4 non-commuting pair.
``faults``
    Build a cluster from the same fault flags as ``demo``, run a
    short workload, and print every active fault layer's summary plus
    the seed ledger -- the one-stop replay record for a faulty run.
``bench``
    Run the standard insert-burst throughput benchmark and write
    ``BENCH_core.json`` (see :mod:`repro.perf`).
``profile``
    cProfile the fast benchmark configuration and print the hottest
    functions.
``version``
    Print the package version.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter


def _parse_crash_schedule(specs: list[str]) -> tuple:
    """Parse ``pid:crash_at[:restart_at]`` triples from the CLI."""
    schedule = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"--crash expects pid:crash_at[:restart_at], got {spec!r}"
            )
        pid, crash_at = int(parts[0]), float(parts[1])
        restart_at = float(parts[2]) if len(parts) == 3 else None
        schedule.append((pid, crash_at, restart_at))
    return tuple(schedule)


def _parse_window(spec: str, what: str) -> tuple[float, float | None]:
    """Parse ``T0`` or ``T0:T1`` (empty T1 = never heals)."""
    parts = spec.split(":")
    if len(parts) not in (1, 2) or not parts[0]:
        raise SystemExit(f"{what} expects T0[:T1], got {spec!r}")
    start = float(parts[0])
    end = float(parts[1]) if len(parts) == 2 and parts[1] else None
    return start, end


def _parse_endpoint(token: str, what: str) -> int | None:
    """A pid, or ``*`` for "any processor"."""
    if token == "*":
        return None
    try:
        return int(token)
    except ValueError:
        raise SystemExit(f"{what} expects a pid or '*', got {token!r}")


def _parse_partition_plans(args: argparse.Namespace):
    """Build a PartitionPlan from the --partition* flags (or None)."""
    if not (args.partition or args.partition_oneway or args.partition_gray):
        return None
    from repro import PartitionPlan

    splits = []
    for spec in args.partition:
        group_part, _, window_part = spec.partition("@")
        if not window_part:
            raise SystemExit(
                f"--partition expects PIDS@T0[:T1], got {spec!r}"
            )
        group = tuple(int(p) for p in group_part.split(","))
        start, end = _parse_window(window_part, "--partition")
        splits.append((start, end, group))
    one_way = []
    for spec in args.partition_oneway:
        link_part, _, window_part = spec.partition("@")
        if not window_part or ">" not in link_part:
            raise SystemExit(
                f"--partition-oneway expects SRC>DST@T0[:T1], got {spec!r}"
            )
        src_tok, dst_tok = link_part.split(">", 1)
        start, end = _parse_window(window_part, "--partition-oneway")
        one_way.append((
            start, end,
            _parse_endpoint(src_tok, "--partition-oneway"),
            _parse_endpoint(dst_tok, "--partition-oneway"),
        ))
    gray = []
    for spec in args.partition_gray:
        link_part, _, rest = spec.partition("@")
        parts = rest.split(":")
        if len(parts) != 3 or ">" not in link_part:
            raise SystemExit(
                "--partition-gray expects SRC>DST@T0:T1:FACTOR "
                f"(empty T1 = never heals), got {spec!r}"
            )
        src_tok, dst_tok = link_part.split(">", 1)
        start = float(parts[0])
        end = float(parts[1]) if parts[1] else None
        gray.append((
            start, end,
            _parse_endpoint(src_tok, "--partition-gray"),
            _parse_endpoint(dst_tok, "--partition-gray"),
            float(parts[2]),
        ))
    return PartitionPlan(
        splits=tuple(splits), one_way=tuple(one_way), gray=tuple(gray)
    )


def _build_fault_plans(args: argparse.Namespace):
    """The (fault, crash, partition) plans the flags ask for.

    ``--detector`` without ``--crash`` is a crash plan that crashes
    nothing: its earned detector still suspects, rightly or not."""
    from repro import CrashPlan, FaultPlan

    fault_plan = None
    if args.drop_p or args.duplicate_p or args.reorder_p:
        fault_plan = FaultPlan(
            drop_p=args.drop_p,
            duplicate_p=args.duplicate_p,
            reorder_p=args.reorder_p,
        )
    crash_plan = None
    if args.crash or args.detector is not None:
        crash_plan = CrashPlan(
            schedule=_parse_crash_schedule(args.crash),
            detector=args.detector or "oracle",
            heartbeat_period=args.heartbeat_period,
            detection_delay=args.detection_delay,
            detector_horizon=args.detector_horizon,
        )
    return fault_plan, crash_plan, _parse_partition_plans(args)


#: The demo workload's key modulus (prime: keys stay distinct).
_DEMO_KEY_SPACE = 999_983
#: The demo's stride through it: about the golden-ratio fraction of
#: the space, so even a short run's keys spread over every shard.
_DEMO_KEY_STRIDE = 618_031


def _wants_sharding(args: argparse.Namespace) -> bool:
    return args.shards > 1 or args.shard_split_threshold is not None


def _build_any_cluster(args: argparse.Namespace, plans):
    """The cluster the flags ask for: plain, or a sharded forest.

    With ``--shards 1`` and no split threshold this constructs a plain
    :class:`~repro.core.client.DBTreeCluster` -- the unsharded fast
    path stays byte-identical.  The sharded forest range-partitions
    the demo key space ``[0, 999_983)`` evenly and passes every fault
    plan through to each shard tree.
    """
    fault_plan, crash_plan, partition_plan = plans
    kwargs = dict(
        num_processors=args.processors,
        protocol=args.protocol,
        capacity=args.capacity,
        seed=args.seed,
        fault_plan=fault_plan,
        reliability=args.reliability,
        crash_plan=crash_plan,
        partition_plan=partition_plan,
        op_timeout=args.op_timeout,
        replication_factor=args.replication_factor,
        mirror_placement=args.mirror_placement,
        repair_period=args.repair_period,
    )
    if not _wants_sharding(args):
        from repro import DBTreeCluster

        return DBTreeCluster(**kwargs)
    from repro import ShardedCluster

    boundaries = tuple(
        index * _DEMO_KEY_SPACE // args.shards
        for index in range(1, args.shards)
    )
    seed = kwargs.pop("seed")
    return ShardedCluster(
        shards=args.shards,
        initial_boundaries=boundaries,
        shard_split_threshold=args.shard_split_threshold,
        shard_merge_threshold=args.shard_merge_threshold,
        seed=seed,
        **kwargs,
    )


def _build_and_drive(args: argparse.Namespace, spacing: float):
    """Build the cluster the flags ask for and run the demo workload.

    Inserts arrive ``spacing`` apart (so faults land mid-workload),
    or all at once when it is 0.  Returns the cluster, its run
    results and the expected contents.
    """
    try:
        cluster = _build_any_cluster(args, _build_fault_plans(args))
    except ValueError as err:
        raise SystemExit(f"repro {args.command}: {err}")
    expected = {}
    for index in range(args.inserts):
        key = index * _DEMO_KEY_STRIDE % _DEMO_KEY_SPACE
        expected[key] = index
        client = index % args.processors
        if spacing:
            cluster.schedule(index * spacing, "insert", key, index, client=client)
        else:
            cluster.insert(key, index, client=client)
    return cluster, cluster.run(), expected


#: One detail line per layer, filled from its entry in
#: :func:`repro.stats.layer_report` (rendered by :func:`_show`).
_LAYER_DETAIL = {
    "faults": "drop={drop_p} dup={duplicate_p} reorder={reorder_p}",
    "reliability": (
        "{logical_sent} logical msgs (+{piggybacked} piggybacked), "
        "{physical_sent} on the wire "
        "({retransmits} retransmits, {retransmits_on_ack} of them on an ack; "
        "{acks} acks), {dropped} dropped, "
        "{dup_suppressed} dups suppressed, {resequenced} resequenced"
    ),
    "permute": (
        "{considered} swappable arrivals, {held} held, {swaps} swaps, "
        "{ordered_flushes} ordered flushes, {timeout_releases} released "
        "at their deadline"
    ),
    "crash": (
        "{crashes} crashes ({restarts} restarted), {lost_actions} actions "
        "lost, {dead_letters} dead letters; ops re-issued: {op_retries} by "
        "their timer, {op_failed_over} failed over; detector {detector}: "
        "{heartbeats_sent} heartbeats, {suspicions} suspicions earned "
        "({false_suspicions} false, {rescinds} rescinded), "
        "mean detection {mean_detection}"
    ),
    "partition": (
        "{cuts_applied} cuts ({heals} healed), "
        "{gray_applied} gray windows, {messages_blocked} messages swallowed; "
        "open at quiescence: {open_cut_links} cut, {open_gray_links} gray"
    ),
    "repair": (
        "{placement} placement, period {period}: "
        "{rounds_started} rounds ({rounds_clean} clean, {rounds_diverged} "
        "diverged, {rounds_aborted} aborted; {offers_piggybacked} offers "
        "piggybacked), {digests_exchanged} digests "
        "({digest_bytes} bytes); repairs: {repairs_by_kind}; "
        "converged {time_to_convergence} before quiescence"
    ),
    "sharding": (
        "{live_shards} live shards ({retired_shards} retired), directory "
        "v{directory_version}, {splits} splits, {merges} merges, "
        "{keys_migrated} keys migrated in {migration_msgs} messages; "
        "routing: {direct_routes} direct, "
        "{stale_routes} stale ({hint_hops} hint hops, {forwards} forwards, "
        "{refreshes} view refreshes), scan fan-out {scan_fanout}; "
        "leaves by processor {leaves_by_processor}"
    ),
}


def _show(value) -> str:
    """A report value as text: a by-kind breakdown shows its non-zero
    kinds, a per-processor list its counts in pid order."""
    if isinstance(value, dict):
        shown = (f"{count} {kind}" for kind, count in value.items() if count)
        return ", ".join(shown) or "none"
    if isinstance(value, list):
        return "/".join(map(str, value))
    if isinstance(value, float):
        return f"{value:g}"
    return "n/a" if value is None else str(value)


def _report_lines(cluster):
    """``(label, on, detail)`` for every layer, on or off.

    A forest is reported shard by shard (label ``shard N name``,
    retired shards included: their work was done), then its own
    ``sharding`` line from
    :meth:`~repro.shard.cluster.ShardedCluster.shard_summary`.
    """
    from repro.stats import layer_report

    forest = getattr(cluster, "clusters", None)
    trees = (
        [("", cluster)] if forest is None
        else [(f"shard {sid} ", forest[sid]) for sid in sorted(forest)]
    )
    reports = [
        (prefix + name, name, summary)
        for prefix, tree in trees
        for name, summary in layer_report(tree).items()
    ]
    sharding = {"enabled": False} if forest is None else cluster.shard_summary()
    for label, name, summary in [*reports, ("sharding", "sharding", sharding)]:
        shown = {key: _show(value) for key, value in summary.items()}
        for key, value in summary.items():
            if key.endswith("_samples") and value == 0:
                # A mean over no sample reads 0.0: show that none was taken.
                shown["mean_" + key.removesuffix("_samples")] = "-"
        on = summary["enabled"]
        yield label, on, _LAYER_DETAIL[name].format_map(shown) if on else ""


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.tools import cluster_summary, dump_tree

    faulty = any((args.crash, args.partition,
                  args.partition_oneway, args.partition_gray))
    cluster, results, expected = _build_and_drive(
        args, args.op_spacing if faulty else 0.0
    )
    report = cluster.check(expected=expected)
    if _wants_sharding(args):
        for shard in cluster.directory.live_shards():
            print(f"shard {shard.shard_id:<3} {str(shard.range):<40} "
                  f"{cluster.entry_count(shard.shard_id)} entries")
    else:
        print(cluster_summary(cluster.engine))
        print()
        print(dump_tree(cluster.engine))
    print()
    print(
        f"ops: {len(results.completed)} completed, "
        f"{len(results.incomplete)} incomplete, "
        f"{len(results.failed)} failed, {len(results.timed_out)} timed out"
    )
    for label, on, detail in _report_lines(cluster):
        if on:
            print(f"{label}: {detail}")
    print("audit:", report.summary())
    for problem in report.problems[:10]:
        print(" ", problem)
    if rest := report.problems[10:]:
        # Each problem is tagged with its check, "[name] ..." (in a
        # forest after "shard N: "): the rest are tallied by it.
        tally = Counter(re.search(r"\[([\w-]+)\]", p)[1] for p in rest)
        counts = ", ".join(f"{n} {name}" for name, n in tally.most_common())
        print(f"  ... {len(rest)} more: {counts}")
    return 0 if report.ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    cluster, results, _ = _build_and_drive(args, args.op_spacing)
    print(
        f"fault layers @ t={results.elapsed:.0f} "
        f"({len(results.completed)}/{args.inserts} ops completed):"
    )
    lines = list(_report_lines(cluster))
    width = 1 + max(len(label) for label, _, _ in lines)
    for label, on, detail in lines:
        print(f"  {label:<{width}}{'on   ' + detail if on else 'off'}")
    print("seeds:")
    ledgers = cluster.seed_summary()
    if not _wants_sharding(args):
        ledgers = {"": ledgers}  # a forest keeps one ledger per shard
    for label, streams in ledgers.items():
        for stream, value in sorted(streams.items()):
            print(f"  {label and label + '/'}{stream:<12}{value}")
    return 0


def _cmd_hash_demo(args: argparse.Namespace) -> int:
    from repro.hash import LazyHashTable

    table = LazyHashTable(
        num_processors=args.processors,
        capacity=args.capacity,
        mode=args.mode,
        seed=args.seed,
    )
    expected = {}
    for index in range(args.inserts):
        key = f"key-{index}"
        expected[key] = index
        table.insert(key, index, client=index % args.processors)
    table.run()
    report = table.check(expected=expected)
    counters = table.trace.counters
    print(
        f"lazy hash table @ t={table.now:.0f}: "
        f"{len(table.engine.all_buckets())} buckets over "
        f"{args.processors} processors, "
        f"{counters.get('hash_splits', 0)} splits, "
        f"{counters.get('hash_forwarded', 0)} misroutes repaired, "
        f"{table.kernel.network.stats.sent} messages"
    )
    print("audit:", report.summary())
    return 0 if report.ok else 1


def _cmd_permute(args: argparse.Namespace) -> int:
    from repro.verify.permute import checker_selftest, permutation_audit

    if args.selftest:
        report = checker_selftest(
            seeds=tuple(args.permute_seeds), rounds=args.permute_rounds
        )
        print("selftest:", report.summary())
        return 0 if report.ok else 1

    exit_code = 0
    for seed in args.permute_seeds:
        report = permutation_audit(
            args.protocol,
            seed,
            rounds=args.permute_rounds,
            rate=args.rate,
            window=args.window,
            ops=args.ops,
            minimize=not args.no_minimize,
        )
        print(report.summary())
        for round_result in report.rounds:
            if not round_result.diverged:
                continue
            for problem in round_result.problems:
                print(f"  round {round_result.round_index}: {problem}")
            minimized = round_result.minimized
            if minimized:
                print(
                    f"  round {round_result.round_index} minimized to "
                    f"holds={minimized['holds']} "
                    f"pairs={minimized['pairs']}"
                )
                culprits = minimized["culprits"]
                for culprit in culprits[:5]:
                    print(
                        f"    culprit @t={culprit['time']:.0f} "
                        f"dst={culprit['dst']}: delayed "
                        f"{culprit['delayed']} behind {culprit['overtook']}"
                    )
                if len(culprits) > 5:
                    print(
                        f"    ... and {len(culprits) - 5} more swaps "
                        f"delaying the same action(s)"
                    )
        if not report.ok:
            exit_code = 1
    return exit_code


def _cmd_protocols(_args: argparse.Namespace) -> int:
    from repro.protocols import PROTOCOLS

    for name, cls in sorted(PROTOCOLS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<10} {doc}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        OPCODE_ROWS,
        PROTOCOL_ROWS,
        READ_SEARCH_SHARE,
        write_bench_core,
    )

    num_ops = 2_000 if args.smoke else args.ops
    report = write_bench_core(args.output, num_ops=num_ops, seed=args.seed)
    fast, enforced = report["fast"], report["enforced"]
    print(
        f"standard insert-burst ({num_ops:,} ops): "
        f"{fast['ops_per_sec']:,.0f} ops/s, "
        f"{fast['events_per_sec']:,.0f} events/s, "
        f"{fast['events_per_op']:.2f} events/op, "
        f"{fast['msgs_per_op']:.2f} msgs/op "
        f"(+{fast['piggybacked_per_op']:.2f} piggybacked), "
        f"cache hit rate {fast['cache']['hit_rate']:.3f}"
    )
    print(
        f"same, 10% loss, reliability enforced "
        f"({enforced['ops_completed']:,} ops): "
        f"{enforced['events_per_op']:.2f} events/op, "
        f"{enforced['frames_per_op']:.2f} frames/op"
    )
    repair = report["repair"]
    print(
        f"same, variable, repair every 150 vt "
        f"({repair['ops_completed']:,} ops): "
        f"{repair['events_per_op']:.2f} events/op, "
        f"{repair['rounds_started']:,} rounds "
        f"({repair['rounds_diverged']:,} diverged), "
        f"{repair['digest_bytes']:,} digest bytes"
    )
    crash = report["crash"]
    print(
        f"same, variable, rf 2, op timers, one 800-vt crash "
        f"({crash['ops_completed']:,} ops): "
        f"{crash['events_per_op']:.2f} events/op, "
        f"virtual time {crash['final_virtual_time']:,.1f}"
    )
    read = report["read"]
    print(
        f"variable, {read['config']['preload']:,} preloaded, then "
        f"{READ_SEARCH_SHARE:.0%} searches "
        f"({read['ops_completed']:,} ops): "
        f"{read['events_per_op']:.2f} events/op, "
        f"{read['msgs_per_op']:.2f} msgs/op, "
        f"cache hit rate {read['cache']['hit_rate']:.3f}"
    )
    print(
        f"insert burst, fault-free ({report['sync']['ops_completed']:,} ops): "
        + ", ".join(
            f"{row} {report[row]['events_per_op']:.2f} events/op, "
            f"{report[row]['msgs_per_op']:.2f} msgs/op"
            for row in PROTOCOL_ROWS
        )
    )
    opcodes = report["opcodes"]
    print(
        f"opcodes/op over {opcodes['fast']['ops']:,} ops ({opcodes['python']}): "
        + ", ".join(f"{row} {opcodes[row]['per_op']:,.1f}" for row in OPCODE_ROWS)
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.perf import run_insert_burst

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_insert_burst(args.ops, seed=args.seed)
    profiler.disable()
    print(
        f"profiled {result['ops_completed']:,} ops "
        f"({result['events_executed']:,} events)\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.limit)
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote raw profile to {args.output} (open with pstats/snakeviz)")
    return 0


def _cmd_version(_args: argparse.Namespace) -> int:
    import repro

    print(repro.__version__)
    return 0


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    """Cluster + fault-layer flags shared by ``demo`` and ``faults``."""
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--protocol", default="semisync")
    parser.add_argument("--capacity", type=int, default=8)
    parser.add_argument("--inserts", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--reliability",
        default="assumed",
        choices=["assumed", "enforced"],
        help="'enforced' turns on the reliable-delivery layer "
        "(dedup + acks + retransmission + resequencing)",
    )
    parser.add_argument(
        "--drop-p", type=float, default=0.0,
        help="probability the substrate drops a message",
    )
    parser.add_argument(
        "--duplicate-p", type=float, default=0.0,
        help="probability the substrate duplicates a message",
    )
    parser.add_argument(
        "--reorder-p", type=float, default=0.0,
        help="probability a message bypasses per-channel FIFO",
    )
    parser.add_argument(
        "--crash", action="append", default=[], metavar="PID:T0[:T1]",
        help="schedule a crash-stop: processor PID crashes at T0 and "
        "restarts at T1 (omit T1 for a permanent crash); repeatable",
    )
    parser.add_argument(
        "--detection-delay", type=float, default=50.0,
        help="the failure detector's timeout: without --detector, how "
        "long after a crash peers learn of it (must exceed the message "
        "latency); with --detector, the silence that raises suspicion",
    )
    parser.add_argument(
        "--partition", action="append", default=[],
        metavar="PIDS@T0[:T1]",
        help="cut a group of processors off from the rest between T0 "
        "and T1 (omit T1 for a cut that never heals), e.g. "
        "'0,1@800:1400'; repeatable",
    )
    parser.add_argument(
        "--partition-oneway", action="append", default=[],
        metavar="SRC>DST@T0[:T1]",
        help="cut one direction of a link ('*' = any pid), e.g. "
        "'1>*@500:900'; repeatable",
    )
    parser.add_argument(
        "--partition-gray", action="append", default=[],
        metavar="SRC>DST@T0:T1:FACTOR",
        help="gray failure: inflate a link's latency by FACTOR between "
        "T0 and T1 (empty T1 = never heals), e.g. '1>*@500:2500:10'; "
        "repeatable",
    )
    parser.add_argument(
        "--detector", default=None, choices=list_detector_modes(),
        help="replace the oracle failure detector with earned "
        "heartbeat-based detection ('timeout' or 'phi' accrual)",
    )
    parser.add_argument(
        "--heartbeat-period", type=float, default=20.0,
        help="heartbeat emission period for --detector",
    )
    parser.add_argument(
        "--detector-horizon", type=float, default=5000.0,
        help="virtual time after which heartbeats stop (lets the "
        "simulation quiesce)",
    )
    parser.add_argument(
        "--op-timeout", type=float, default=None,
        help="per-operation timeout with idempotent retry from the root "
        "(retries back off with decorrelated jitter)",
    )
    parser.add_argument(
        "--replication-factor", type=int, default=1,
        help="total leaf copies under crashes (>= 2 maintains mirrors "
        "that are promoted when the home dies)",
    )
    parser.add_argument(
        "--mirror-placement", default="ring",
        choices=["ring", "rendezvous"],
        help="mirror target policy: pid-successor 'ring' (one failure "
        "domain per home) or per-leaf 'rendezvous' hashing",
    )
    parser.add_argument(
        "--repair-period", type=float, default=None,
        help="enable background anti-entropy repair with this gossip "
        "period (virtual time units)",
    )
    parser.add_argument(
        "--op-spacing", type=float, default=8.0,
        help="inter-arrival time between inserts (so faults land "
        "mid-workload); demo paces only under a crash or partition plan",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="run a forest of this many dB-trees behind a shard "
        "directory (1 = the unsharded fast path, byte-identical)",
    )
    parser.add_argument(
        "--shard-split-threshold", type=int, default=None,
        help="entry count at which an overloaded shard splits at its "
        "median key (implies the sharded path even with --shards 1)",
    )
    parser.add_argument(
        "--shard-merge-threshold", type=int, default=None,
        help="combined entry count under which two adjacent shards "
        "merge (must be below the split threshold)",
    )


def list_detector_modes() -> list[str]:
    from repro.sim.detector import DETECTOR_MODES

    return list(DETECTOR_MODES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lazy updates for distributed search structures (dB-tree).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run a dB-tree demo + audit")
    _add_cluster_args(demo)
    demo.set_defaults(func=_cmd_demo)

    faults = subparsers.add_parser(
        "faults",
        help="run a faulty workload and print every active fault "
        "layer + the seed ledger",
    )
    _add_cluster_args(faults)
    faults.set_defaults(func=_cmd_faults)

    hash_demo = subparsers.add_parser(
        "hash-demo", help="run a lazy hash table demo + audit"
    )
    hash_demo.add_argument("--processors", type=int, default=4)
    hash_demo.add_argument("--mode", default="lazy",
                           choices=["lazy", "correction", "sync"])
    hash_demo.add_argument("--capacity", type=int, default=8)
    hash_demo.add_argument("--inserts", type=int, default=200)
    hash_demo.add_argument("--seed", type=int, default=0)
    hash_demo.set_defaults(func=_cmd_hash_demo)

    permute = subparsers.add_parser(
        "permute", help="run the permutation-replay convergence checker"
    )
    permute.add_argument("--protocol", default="semisync")
    permute.add_argument(
        "--permute-seeds", type=int, nargs="+", default=[0, 1, 2],
        metavar="SEED",
        help="workload seeds to audit (each gets its own canonical run)",
    )
    permute.add_argument(
        "--permute-rounds", type=int, default=6,
        help="permuted schedules replayed per seed",
    )
    permute.add_argument(
        "--rate", type=float, default=0.3,
        help="fraction of swappable deliveries held for overtaking",
    )
    permute.add_argument(
        "--window", type=float, default=35.0,
        help="maximum virtual time a held delivery waits",
    )
    permute.add_argument(
        "--ops", type=int, default=48,
        help="workload size (phase-1 inserts; phase 2 adds ops/4 "
        "delete/insert pairs)",
    )
    permute.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging divergent rounds",
    )
    permute.add_argument(
        "--selftest", action="store_true",
        help="prove the checker catches the paper's item-4 pair "
        "(registry rejection + live naive-protocol detection)",
    )
    permute.set_defaults(func=_cmd_permute)

    protocols = subparsers.add_parser("protocols", help="list protocols")
    protocols.set_defaults(func=_cmd_protocols)

    bench = subparsers.add_parser(
        "bench", help="run the standard insert-burst benchmark"
    )
    bench.add_argument("--ops", type=int, default=100_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", default="BENCH_core.json")
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run (2k ops) for CI",
    )
    bench.set_defaults(func=_cmd_bench)

    profile = subparsers.add_parser(
        "profile", help="cProfile the fast benchmark configuration"
    )
    profile.add_argument("--ops", type=int, default=20_000)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls", "time", "calls"],
    )
    profile.add_argument("--limit", type=int, default=25)
    profile.add_argument("--output", default=None,
                         help="also dump the raw profile to this path")
    profile.set_defaults(func=_cmd_profile)

    version = subparsers.add_parser("version", help="print the version")
    version.set_defaults(func=_cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
