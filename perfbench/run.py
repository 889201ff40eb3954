"""Layered, oracle-checked benchmark of pulseforge.

Run from the repository root, with the standard library only:

    python3 perfbench/run.py --workload general-asym --seed 0 \
        --seconds 30 --trace 0

A run repeats passes over the workload's fixed instance list (see
workloads.py and NOTES.md) until --seconds are used up, always
completing the first pass (the first two when traced), and reports
per-instance means.
Every instance is judged by the public oracles; a failed check, an
exception, an exhausted budget, or a verdict that differs from the
pinned fingerprint or from the run's first pass counts as failed. The
last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, and with --trace 1 the per-layer metrics of a
traced run, whose traced passes alternate with untraced ones. Exit code
0 when every instance passed, 1 when one failed, 2 when the package or
the arguments are unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field

sys.dont_write_bytecode = True  # leave the checkout as it was found

import tracing
import workloads
from tracing import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("general-asym", "even-binary", "stabilizing-peel", "mc-explore")
# Never measure longer than this, well inside the 180 s a run may take.
HARD_STOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s_p50": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "topology.layer_decomposition_s": "s",
    "topology.enumerate_subtrees_s": "s",
    "topology.is_edge_symmetric_s": "s",
    "topology.shape_count": "count",
    "harness.generate_s": "s",
    "harness.verify_outcome_s": "s",
    "protocol.compile_rules_s": "s",
    "protocol.rule_count": "count",
    "protocol.on_deliver_s": "s",
    "protocol.on_deliver_calls": "count",
    "protocol.on_deliver_us": "us",
    "protocol.stabilizing_step_s": "s",
    "protocol.stabilizing_step_calls": "count",
    "protocol.run_share": "ratio",
    "simulator.new_simulation_s": "s",
    "simulator.run_s": "s",
    "simulator.deliveries": "count",
    "simulator.self_us_per_delivery": "us",
    "simulator.explore_s": "s",
    "simulator.mc_states": "count",
    "simulator.mc_transitions": "count",
    "simulator.explore_self_us_per_transition": "us",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "ratio",
    "failed_ratio": "ratio",
}

GENERATE = "harness.generate"
NEW_SIMULATION = "simulator.new_simulation"
RUN = "simulator.run"
EXPLORE = "simulator.explore_all_schedules"
VERDICT = "harness.verdict"


def load_package():
    """Import pulseforge from this checkout's src/, or return None."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pulseforge", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import pulseforge
    return pulseforge


@dataclass
class InstanceRecord:
    """One instance in one pass."""

    index: int
    spans: list = field(default_factory=list)   # (name, start, end)
    deliveries: int = 0          # run deliveries, or explored transitions
    states: int = 0
    digest: str | None = None
    problems: list = field(default_factory=list)
    # Traced passes only: metered protocol calls and seconds over the
    # whole instance, protocol seconds inside run/explore, and the
    # topology probe of the instance's tree.
    calls: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    protocol_in_main: float = 0.0
    probe: dict = field(default_factory=dict)

    def span(self, name):
        return sum((b - a for n, a, b in self.spans if n == name), 0.0)

    @property
    def setup_s(self):
        return self.span(GENERATE) + self.span(NEW_SIMULATION)

    @property
    def main_s(self):
        return self.span(RUN) + self.span(EXPLORE)

    @property
    def verdict_s(self):
        """From the generated tree to the oracle verdict."""
        return self.spans[-1][2] - self.spans[1][1]

    @property
    def total_s(self):
        return self.spans[-1][2] - self.spans[0][1]

    def signature(self):
        return (self.digest, self.deliveries, self.states)


@dataclass
class PassResult:
    traced: bool
    start: float
    wall: float
    records: list


def run_instance(pf, inst, meter):
    rec = InstanceRecord(inst.index)
    if meter is not None:
        calls0, seconds0 = meter.snapshot()
    try:
        t0 = clock()
        tree, ids = workloads.build_input(pf, inst)
        t1 = clock()
        state = pf.new_simulation(tree, inst.algorithm, ids)
        t2 = clock()
        if not inst.explore:
            budget = workloads.budget_for(tree, inst.algorithm, ids, state)
        p0 = meter.total_seconds() if meter is not None else 0.0
        t3 = clock()
        if inst.explore:
            report = pf.explore_all_schedules(tree, inst.algorithm, ids)
            t4 = clock()
            p1 = meter.total_seconds() if meter is not None else 0.0
            rec.problems += workloads.explore_problems(pf, report, tree)
            t5 = clock()
            main = EXPLORE
            rec.deliveries, rec.states = report.transitions, report.states
            fields = workloads.explore_fields(report)
        else:
            outcome = pf.run(state, pf.SeededRandom(inst.seed), budget)
            t4 = clock()
            p1 = meter.total_seconds() if meter is not None else 0.0
            verdict = pf.verify_outcome(outcome, tree, inst.algorithm)
            t5 = clock()
            rec.problems += workloads.run_problems(verdict)
            main = RUN
            rec.deliveries = outcome.deliveries
            fields = workloads.run_fields(outcome)
        rec.spans = [(GENERATE, t0, t1), (NEW_SIMULATION, t1, t2),
                     (main, t3, t4), (VERDICT, t4, t5)]
        rec.digest = workloads.digest(fields)
        if meter is not None:
            calls1, seconds1 = meter.snapshot()
            rec.calls = {k: calls1[k] - calls0[k] for k in calls1}
            rec.seconds = {k: seconds1[k] - seconds0[k] for k in seconds1}
            rec.protocol_in_main = p1 - p0
            rec.probe = probe_topology(pf, tree, inst.algorithm)
    except Exception as exc:  # one broken instance must not end the run
        rec.problems.append("%s: %s" % (type(exc).__name__, exc))
    return rec


def run_pass(pf, insts, meter=None, deadline=None, expected=None):
    """Run the instances in order. With a deadline, stop before an
    instance whose expected time would overrun it."""
    start = clock()
    records = []
    for inst in insts:
        if deadline is not None and clock() + expected[inst.index] > deadline:
            break
        records.append(run_instance(pf, inst, meter))
    end = clock()
    # Probes run inside run_instance after the verdict; they are not
    # part of the pass.
    probe_s = sum(r.probe.get("probe_s", 0.0) for r in records)
    return PassResult(meter is not None, start, end - start - probe_s,
                      records)


def probe_topology(pf, tree, algorithm):
    """Time the topology calls the workload's path makes, each on a
    fresh copy of the tree, so the identity-keyed caches neither hide
    their cost nor carry it into a later call."""
    out = {"topology.layer_decomposition_s": 0.0,
           "topology.enumerate_subtrees_s": 0.0,
           "topology.is_edge_symmetric_s": 0.0,
           "topology.shape_count": 0,
           "protocol.compile_rules_s": 0.0,
           "protocol.rule_count": 0,
           "probe_s": 0.0}
    if algorithm == "stabilizing":
        return out              # its path reaches none of them
    start = clock()
    copy = pf.TreeTopology(tree.n, tree.edges())
    fresh = pf.TreeTopology(tree.n, tree.edges())
    t0 = clock()
    layering = pf.layer_decomposition(copy)
    t1 = clock()
    index = pf.enumerate_subtrees(copy, layering)
    t2 = clock()
    if algorithm == "general":
        pf.is_edge_symmetric(copy)
        t3 = clock()
        out["topology.is_edge_symmetric_s"] = t3 - t2
        rules = pf.compile_general_rules(fresh)
    else:
        t3 = clock()
        rules = pf.compile_even_rules(layering.diameter)
    t4 = clock()
    out["topology.layer_decomposition_s"] = t1 - t0
    out["topology.enumerate_subtrees_s"] = t2 - t1
    out["protocol.compile_rules_s"] = t4 - t3
    out["topology.shape_count"] = index.count
    out["protocol.rule_count"] = len(rules.upstream) + 1
    out["probe_s"] = t4 - start
    return out


def load_pins(workload, seed):
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        pins = json.load(fh)
    if seed != pins["seed"]:
        return None
    return pins["instances"].get(workload)


def judge(passes, pins):
    """Mark instances whose verdict strays from the pinned fingerprint
    or from the first pass; return (attempted, failed, problems)."""
    first = [rec.signature() for rec in passes[0].records]
    problems = []
    attempted = failed = 0
    for number, result in enumerate(passes):
        for rec, want in zip(result.records, first):
            if rec.signature() != want:
                rec.problems.append("pass %d differs from pass 0: %r != %r"
                                    % (number, rec.signature(), want))
            pinned = pins[rec.index] if pins and rec.index < len(pins) \
                else None
            if pins is not None and rec.digest != pinned:
                rec.problems.append("fingerprint %s, pinned %s"
                                    % (rec.digest, pinned))
            attempted += 1
            if rec.problems:
                failed += 1
                problems += ["pass %d instance %d: %s" % (number, rec.index, p)
                             for p in rec.problems]
    return attempted, failed, problems


def samples(passes, key):
    """Per instance, in index order, the list of key over its samples."""
    groups = {}
    for p in passes:
        for rec in p.records:
            groups.setdefault(rec.index, []).append(key(rec))
    return [v for _, v in sorted(groups.items())]


def per_instance(passes, key):
    """Per instance, in index order, the mean of key over its samples."""
    return [statistics.fmean(v) for v in samples(passes, key)]


def end_to_end(passes, peak_rss_kb):
    records = [rec for p in passes for rec in p.records]
    return {
        "setup_s": sum(per_instance(passes, lambda r: r.setup_s)),
        "wall_s": sum(per_instance(passes, lambda r: r.total_s)),
        "verdict_s_p50": statistics.median(
            per_instance(passes, lambda r: r.verdict_s)),
        "deliveries_per_s": sum(rec.deliveries for rec in records)
        / sum(rec.main_s for rec in records),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def layer_quantities(rec):
    """What one traced instance contributes to the per-layer metrics."""
    main = rec.spans[2][0]
    q = dict(rec.probe)
    q.update({
        "harness.generate_s": rec.span(GENERATE),
        "harness.verify_outcome_s": rec.span(VERDICT),
        "simulator.new_simulation_s": rec.span(NEW_SIMULATION),
        "simulator.run_s": rec.span(RUN),
        "simulator.explore_s": rec.span(EXPLORE),
        "simulator.deliveries": rec.deliveries if main == RUN else 0,
        "simulator.mc_transitions": rec.deliveries if main == EXPLORE else 0,
        "simulator.mc_states": rec.states,
        "protocol.on_deliver_s": rec.seconds["on_deliver"],
        "protocol.on_deliver_calls": rec.calls["on_deliver"],
        "protocol.stabilizing_step_s": rec.seconds["stabilizing_step"],
        "protocol.stabilizing_step_calls": rec.calls["stabilizing_step"],
        "in_run": rec.protocol_in_main if main == RUN else 0.0,
        "in_explore": rec.protocol_in_main if main == EXPLORE else 0.0,
        "total": rec.total_s,
    })
    return q


def per_layer(traced, untraced, failed_ratio):
    """Per-layer metrics: each instance's mean over its traced samples,
    summed over the instances. Counts are the same in every sample."""
    rows = [{k: statistics.fmean(q[k] for q in qs) for k in qs[0]}
            for qs in samples(traced, layer_quantities)]
    t = {k: sum(row[k] for row in rows) for k in rows[0]}
    metrics = {k: (round(v) if PER_LAYER_UNITS.get(k) == "count" else v)
               for k, v in t.items() if k in PER_LAYER_UNITS}
    run_s, explore_s = t["simulator.run_s"], t["simulator.explore_s"]
    metrics.update({
        "protocol.on_deliver_us": per_unit(t["protocol.on_deliver_s"],
                                           t["protocol.on_deliver_calls"]),
        "protocol.run_share":
            (t["in_run"] + t["in_explore"]) / (run_s + explore_s),
        "simulator.self_us_per_delivery":
            per_unit(run_s - t["in_run"], t["simulator.deliveries"]),
        "simulator.explore_self_us_per_transition":
            per_unit(explore_s - t["in_explore"],
                     t["simulator.mc_transitions"]),
        "bench.span_coverage": statistics.fmean(
            sum(r.total_s for r in p.records) / p.wall for p in traced),
        "bench.trace_overhead":
            t["total"] / sum(per_instance(untraced, lambda r: r.total_s)),
        "failed_ratio": failed_ratio,
    })
    if not (t["protocol.on_deliver_calls"]
            or t["protocol.stabilizing_step_calls"]):
        # The simulator no longer reaches the metered functions as
        # module attributes: the split is unknown, not zero.
        for name in ("protocol.on_deliver_s", "protocol.on_deliver_calls",
                     "protocol.on_deliver_us", "protocol.stabilizing_step_s",
                     "protocol.stabilizing_step_calls", "protocol.run_share",
                     "simulator.self_us_per_delivery",
                     "simulator.explore_self_us_per_transition"):
            del metrics[name]
    return metrics


def per_unit(seconds, count):
    return seconds / count * 1e6 if count else 0.0


def write_spans(path, passes):
    log = tracing.SpanLog()
    for number, p in enumerate(passes):
        if not p.traced:
            continue
        pass_id = log.add("bench.pass", p.start, p.start + p.wall,
                          number=number)
        for rec in p.records:
            for name, a, b in rec.spans:
                log.add(name, a, b, parent=pass_id, instance=rec.index)
    log.write(path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pf = load_package()
    if pf is None:
        print("error: no pulseforge package under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    insts = workloads.instances(pf, args.workload, args.seed)
    pins = load_pins(args.workload, args.seed)
    meter = tracing.ProtocolMeter(pf.protocol)
    passes = []
    peak_rss_kb = None
    started = clock()
    deadline = started + min(args.seconds, HARD_STOP_S)
    while True:
        # Traced runs alternate untraced and traced passes, so the
        # trace overhead is measured within one process. Once the
        # first full passes are in, a pass may stop at the deadline.
        traced = bool(args.trace) and len(passes) % 2 == 1
        complete = len(passes) >= 1 + args.trace
        expected = [r.total_s for r in passes[0].records] if complete else None
        gc.collect()
        with meter if traced else contextlib.nullcontext():
            result = run_pass(pf, insts, meter if traced else None,
                              deadline if complete else None, expected)
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if result.records:
            passes.append(result)
        if complete and len(result.records) < len(insts):
            break

    attempted, failed, problems = judge(passes, pins)
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    if failed:
        metrics = {}
    elif args.trace:
        values = per_layer([p for p in passes if p.traced],
                           [p for p in passes if not p.traced],
                           failed / attempted)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in values.items()}
        write_spans(os.path.join(HERE, "out", "spans-%s-seed%d.json"
                                 % (args.workload, args.seed)), passes)
    else:
        values = end_to_end(passes, peak_rss_kb)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    first = passes[0].records
    print("%s seed=%d passes=%d samples=%d instances/pass=%d fingerprint=%s "
          "pinned=%s deliveries/pass=%d states/pass=%d"
          % (args.workload, args.seed, len(passes), attempted, len(first),
             workloads.pass_digest([r.digest or "-" for r in first]),
             "checked" if pins is not None else "none",
             sum(r.deliveries for r in first), sum(r.states for r in first)))
    print("instance digests: %s" % json.dumps([r.digest for r in first]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
