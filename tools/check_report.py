#!/usr/bin/env python3
"""Schema and invariant checks for wrltrace's machine-readable reports.

One entry point for every JSON document the CI smoke jobs assert over:

    check_report.py wrlstats         report.json      # tlb_study or a suite bench
    check_report.py wrlverify        wrlverify.json
    check_report.py replay-sweep     BENCH_replay_sweep.json
    check_report.py sweep-smoke      sweep_smoke.json
    check_report.py wrlprof          wrlprof.json --folded wrlprof.folded
    check_report.py wrltrace-analysis live.json
    check_report.py same-outputs     A.json B.json    # two wrlstats/1 reports

Each check loads the document, asserts the schema tag and the invariants
that keep the report's consumers honest (counter presence, conservation
laws, monotone sweep curves, reconciliation flags), and prints a one-line
summary.  Any violated invariant raises AssertionError and exits nonzero.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def assert_tracks_nest(events):
    """On each Chrome track (pid, tid), complete events are pairwise
    disjoint or nested: a thread's phases form one well-formed stack."""
    tracks = {}
    for e in events:
        if e["ph"] == "X":
            tracks.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], -(e["ts"] + e["dur"]), e["name"]))
    for (_, tid), spans in tracks.items():
        spans.sort()  # By start, the longer of two equal starts first.
        enclosing = []  # (end, name) of the spans holding the current one.
        for start, neg_end, name in spans:
            end = -neg_end
            while enclosing and enclosing[-1][0] <= start:
                enclosing.pop()
            assert not enclosing or end <= enclosing[-1][0], \
                f"tid {tid}: '{name}' overlaps '{enclosing[-1][1]}' without nesting"
            enclosing.append((end, name))
    return len(tracks)


# The phases RunExperiment records on the caller's track, inside each
# experiment phase, in order; with the pipeline, trace.pipeline_wait follows
# run.traced, and with an archive, trace.archive_finalize.
EXPERIMENT_PHASES = ("build.measured", "analysis.setup", "build.traced", "trace.setup",
                     "run.traced", "analysis.finish", "stats.snapshot", "teardown")


def assert_experiment_phases(events):
    """Every experiment phase holds each of EXPERIMENT_PHASES once, on its
    own track, so no stretch of an experiment goes unnamed."""
    spans = [e for e in events if e["ph"] == "X"]
    experiments = [e for e in spans if e["name"].startswith("experiment:")]
    for x in experiments:
        end = x["ts"] + x["dur"]
        inside = [e["name"].split(":")[0] for e in spans
                  if e is not x and e["tid"] == x["tid"] and
                  x["ts"] <= e["ts"] and e["ts"] + e["dur"] <= end]
        for phase in EXPERIMENT_PHASES:
            assert inside.count(phase) == 1, \
                f"{x['name']}: phase '{phase}' appears {inside.count(phase)} times on its track"
    return len(experiments)


def assert_busy_times(report, events):
    """Each experiment reports the parser's self time and every sink's busy
    time, none of which can exceed the experiment's wall time: the parser's
    `trace.parse_wall_us`, the primary simulator's `predicted.wall_us`, each
    `replays[].wall_us`, `sweep.wall_us` and `profile_wall_us`.  A sink the
    parser's tee and the simulators' tee both timed would show here.
    Experiments are matched to their phases by workload name, and a name
    both personalities ran takes the longer."""
    walls = {}
    for e in events:
        if e["ph"] == "X" and e["name"].startswith("experiment:"):
            name = e["name"][len("experiment:"):]
            walls[name] = max(walls.get(name, 0), e["dur"])
    for x in report["experiments"]:
        wall_us = walls[x["workload"]]
        busy = [("trace.parse_wall_us", x["trace"]["parse_wall_us"]),
                ("predicted.wall_us", x["predicted"]["wall_us"])]
        busy += [(f"replays[{i}].wall_us", v["wall_us"])
                 for i, v in enumerate(x.get("replays", []))]
        if "sweep" in x:
            busy.append(("sweep.wall_us", x["sweep"]["wall_us"]))
        if "profile_wall_us" in x:
            busy.append(("profile_wall_us", x["profile_wall_us"]))
        for name, us in busy:
            assert 0 <= us <= wall_us, \
                f"{x['workload']}: {name} {us} lies outside the experiment's [0, {wall_us}] us"


def check_wrlstats(path, args):
    """A wrlstats/1 run report: its timeline, and for tlb_study's report
    the counters and metrics as well."""
    report = load(path)
    assert report["schema"] == "wrlstats/1", report.get("schema")
    events = report["traceEvents"]
    assert events, "empty event timeline"
    tracks = assert_tracks_nest(events)
    experiments = assert_experiment_phases(events)
    if report["tool"] != "tlb_study":
        assert experiments, f"{report['tool']}: no experiment phases in the timeline"
        assert_busy_times(report, events)
        print(f"report OK: {report['tool']}, {experiments} experiments, "
              f"{len(events)} timeline events on {tracks} tracks")
        return
    counters = report["counters"]
    for key in (
        "measured.machine.cycles",
        "measured.kernel.utlb_misses",
        "measured.machine.memsys.dcache_misses",
        "parser.refs",
        "parser.validation_errors",
        "tlbsim.utlb_misses",
    ):
        assert key in counters, f"missing counter: {key}"
    assert counters["measured.machine.cycles"] > 0
    assert counters["parser.validation_errors"] == 0
    metrics = report["metrics"]
    assert metrics, "empty metrics object"
    # The capture-once/replay-many contract: one traced machine run feeds
    # the whole sweep, and replaying the capture beats the live-analysis
    # bound by a wide margin.
    assert metrics["traced_machine_runs"] == 1, metrics["traced_machine_runs"]
    assert metrics["tracelog.compression_ratio"] > 1.0
    assert metrics["replay.speedup_vs_live"] >= 5.0, metrics["replay.speedup_vs_live"]
    # The measured run overlaps the traced run on a helper thread, so the
    # two phases must sit on different tracks.
    def run_tids(prefix):
        return {e["tid"] for e in events
                if e["ph"] == "X" and e["name"].startswith(prefix)}
    measured, traced = run_tids("run.measured:"), run_tids("run.traced:")
    assert measured and traced, (measured, traced)
    assert measured.isdisjoint(traced), \
        f"run.measured and run.traced share tid(s) {sorted(measured & traced)}"
    print(f"report OK: {len(counters)} counters, "
          f"{len(events)} timeline events on {tracks} tracks, "
          f"{metrics['tracelog.compression_ratio']:.2f}x capture, "
          f"replay {metrics['replay.speedup_vs_live']:.1f}x live")


def check_wrlverify(path, args):
    """The wrlverify/1 static-verification report: zero findings."""
    report = load(path)
    assert report["schema"] == "wrlverify/1", report.get("schema")
    targets = report["targets"]
    assert len(targets) > 40, f"only {len(targets)} targets verified"
    totals = report["totals"]
    assert totals["verify.errors"] == 0, totals
    assert totals["verify.warnings"] == 0, totals
    assert totals["verify.traced_blocks"] > 1000
    print(f"wrlverify OK: {len(targets)} targets, "
          f"{int(totals['verify.blocks'])} blocks, "
          f"{int(totals['verify.mem_ops'])} memory ops, 0 findings")


def check_replay_sweep(path, args):
    """The bench-smoke replay sweep: one traced run, one sweep pass."""
    metrics = load(path)["metrics"]
    assert metrics["traced_machine_runs"] == 1, metrics["traced_machine_runs"]
    # production64 + ONE sweep pass, regardless of how many sizes the curve
    # covers (the old per-size fan-out would have been 3).
    assert metrics["replay.configs"] == 2, metrics["replay.configs"]
    assert metrics["tracelog.compression_ratio"] > 1.0
    assert metrics["replay.mrefs_per_sec"] > 0
    assert metrics["sweep.mrefs_per_sec"] > 0
    assert metrics["sweep.family_points"] == 16, metrics["sweep.family_points"]
    print(f"replay sweep OK: {metrics['tracelog.compression_ratio']:.2f}x capture, "
          f"{metrics['replay.mrefs_per_sec']:.1f} Mrefs/s over "
          f"{int(metrics['replay.configs'])} configs, sweep "
          f"{metrics['sweep.mrefs_per_sec']:.0f} Mrefs/s equivalent")


def check_sweep_smoke(path, args):
    """The end-to-end sweep report: family points, monotone curves."""
    report = load(path)
    assert report["schema"] == "wrlstats/1", report.get("schema")
    assert report["tool"] == "tlb_study"
    metrics = report["metrics"]
    # One traced machine run feeds everything.
    assert metrics["traced_machine_runs"] == 1, metrics["traced_machine_runs"]
    # The 8-point I-cache family + the 8-point D-cache family.
    assert metrics["sweep.family_points"] == 16, metrics["sweep.family_points"]
    assert metrics["sweep.tlb_max_entries"] == 256
    assert metrics["sweep.mrefs_per_sec"] > 0
    # --check ran: the measured sweep-vs-replay speedup is recorded.
    assert metrics["sweep.speedup_vs_replay"] > 1.0, metrics["sweep.speedup_vs_replay"]
    # The exact LRU curve is monotone in capacity.
    curve = [metrics[f"eqntott.sweep.entries_{n}.misses"]
             for n in (8, 16, 32, 64, 128, 256)]
    assert all(a >= b for a, b in zip(curve, curve[1:])), curve
    # Both 8-point cache families, monotone in size.
    for side in ("icache", "dcache"):
        family = [metrics[f"eqntott.sweep.{side}_{kb}k.misses"]
                  for kb in (4, 8, 16, 32, 64, 128, 256, 512)]
        assert all(a >= b for a, b in zip(family, family[1:])), family
    counters = report["counters"]
    assert counters["sweep.refs"] > 0
    assert counters["sweep.synthesized_refs"] > 0
    assert counters["sweep.tlbsim.utlb_misses"] == \
        metrics["eqntott.simulated_utlb_misses"]
    print(f"sweep smoke OK: {int(metrics['sweep.family_points'])} family "
          f"points + {int(metrics['sweep.tlb_max_entries'])}-entry curve, "
          f"{metrics['sweep.speedup_vs_replay']:.1f}x vs dedicated replays, "
          f"{metrics['sweep.mrefs_per_sec']:.0f} Mrefs/s equivalent")


def check_wrlprof(path, args):
    """The wrlprof/1 attribution profile: exact reconciliation."""
    report = load(path)
    assert report["schema"] == "wrlprof/1", report.get("schema")
    assert report["tool"] == "wrlprof"
    assert report["reconcile"]["exact"] is True, report["reconcile"]
    profile = report["profile"]
    totals = profile["totals"]
    assert totals["refs"] > 0 and totals["insts"] > 0
    assert totals["unattributed_insts"] == 0, totals
    assert totals["block_entries"] > 0
    assert profile["blocks"] and profile["symbols"] and profile["pages"]
    assert profile["working_set"], "empty working-set curve"
    for block in profile["blocks"]:
        assert block["insts"] >= block["entries"], block
    folded = []
    if args.folded:
        with open(args.folded) as f:
            folded = f.read().splitlines()
        assert folded and all(";" in line for line in folded)
    print(f"wrlprof OK: {int(totals['refs'])} refs, "
          f"{len(profile['symbols'])} symbols, "
          f"{len(folded)} folded stacks, reconcile exact")


def check_wrltrace_analysis(path, args):
    """The wrltrace-analysis/1 counter document record/replay agree over."""
    report = load(path)
    assert report["schema"] == "wrltrace-analysis/1", report.get("schema")
    assert report["tool"] == "wrltrace"
    assert report["mode"] in ("record", "replay"), report.get("mode")
    assert report["workload"], "missing workload identity"
    counters = report["counters"]
    assert counters, "empty counters object"
    for key in ("parser.refs", "parser.validation_errors", "predicted.instructions"):
        assert key in counters, f"missing counter: {key}"
    assert counters["parser.refs"] > 0
    assert counters["parser.validation_errors"] == 0, counters
    assert report["predicted_cycles"] > 0, report["predicted_cycles"]
    timing = ""
    if report["mode"] == "replay":
        # Where the replay's wall time went; outside `counters`, so no
        # --expect comparison reads it.
        wall = report["timing"]["replay_wall_us"]
        busy = report["timing"]["primary_busy_us"]
        assert 0 < busy <= wall, report["timing"]
        timing = f", {wall} us wall, primary simulator busy {busy} us"
    print(f"wrltrace analysis OK ({report['mode']}): {len(counters)} counters, "
          f"{int(counters['parser.refs'])} refs, "
          f"{report['predicted_cycles']:.0f} predicted cycles{timing}")


# What two wrlstats/1 reports of one binary on one input may differ in:
# the timeline, every wall-clock duration (`*wall_us`) and rate
# (`*mrefs_per_sec`, `metrics.sim.mips`), and the counters of the
# pipelined transport's ring (`trace.pipeline.*`), which depend on thread
# timing and are absent under WRL_PIPELINE=0.  Two runs of one binary of
# `bench_table2` and of `bench_figure3` at --scale=0.05 differed in the
# timeline, `predicted.wall_us`, `replays[].wall_us`, `sweep.wall_us`,
# `metrics.sim.mips` and `trace.pipeline.*`; `*mrefs_per_sec` is the
# sweep's busy-time rate, reported when it prices cache families.
def timing_dependent(path):
    leaf = path[-1] if path else None
    if not isinstance(leaf, str):
        return False
    return (path == ("traceEvents",) or path == ("metrics", "sim.mips") or
            leaf.endswith("wall_us") or leaf.endswith("mrefs_per_sec") or
            leaf.startswith("trace.pipeline."))


def first_difference(a, b, path=()):
    """The path of the first field, in document order, where `a` and `b`
    differ outside the timing-dependent fields; None when they agree."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            sub = path + (key,)
            if timing_dependent(sub):
                continue
            if key not in a or key not in b:
                return sub
            diff = first_difference(a[key], b[key], sub)
            if diff is not None:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return path
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, path + (i,))
            if diff is not None:
                return diff
        return None
    return None if a == b else path


def format_path(path):
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else (f".{part}" if text else part)
    return text or "(document)"


def check_same_outputs(path, args):
    """Two wrlstats/1 reports agree in every simulated output."""
    assert args.other, "same-outputs needs two reports"
    a, b = load(path), load(args.other)
    for report in (a, b):
        assert report["schema"] == "wrlstats/1", report.get("schema")
    diff = first_difference(a, b)
    assert diff is None, f"{args.other} differs first at {format_path(diff)}"
    print(f"same outputs: {path} and {args.other} ({len(a.get('experiments', []))} experiments)")


CHECKS = {
    "wrlstats": check_wrlstats,
    "wrlverify": check_wrlverify,
    "replay-sweep": check_replay_sweep,
    "sweep-smoke": check_sweep_smoke,
    "wrlprof": check_wrlprof,
    "wrltrace-analysis": check_wrltrace_analysis,
    "same-outputs": check_same_outputs,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("kind", choices=sorted(CHECKS))
    parser.add_argument("path")
    parser.add_argument("other", nargs="?", help="the second report (same-outputs only)")
    parser.add_argument("--folded", help="folded-stacks file (wrlprof only)")
    args = parser.parse_args(argv)
    try:
        CHECKS[args.kind](args.path, args)
    except AssertionError as e:
        print(f"check_report: {args.kind}: {args.path}: FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
