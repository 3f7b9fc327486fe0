"""Arithmetic of the icvbe benchmark: metrics from raw samples, span self
times, and the verdicts of the compare mode. Standard library only."""

import statistics
from collections import defaultdict

# Span-name prefix -> layer (module) it measures.
LAYER_OF_PREFIX = {
    "netlist": "spice.netlist",
    "session": "spice.session",
    "devices": "spice.devices",
    "linalg": "linalg.sparse",
    "plan": "spice.plan",
    "tran": "spice.plan",
    "ac": "spice.plan",
    "lab": "lab",
    "extract": "extract",
    "pool": "common.thread_pool",
    "server": "server",
}

TAIL_BEYOND = 10
# A run's op figures are the medians of the figures of its 5-second
# windows: neighbours on a shared host slow every op by up to 1.6x for
# seconds at a time, and one such phase, or one stall, should move a run's
# figures no more than one window's worth. A window needs MIN_WINDOW_OPS
# ops to count, and a run MIN_WINDOWS such windows; otherwise the whole
# run is one window.
MIN_WINDOW_OPS = 20
MIN_WINDOWS = 3


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least `beyond` samples
    above it: (value, percentile, samples beyond). With too few samples
    the maximum is returned with 0 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = n - 1 - beyond
    return xs[k], 100.0 * (k + 1) / n, beyond


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. `spans` holds (start, end, parent) with parent an
    index into `spans` or -1."""
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        clipped = sorted((max(spans[c][0], start), min(spans[c][1], end))
                         for c in children[i])
        for s, e in clipped:
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def layer_of(span_name):
    return LAYER_OF_PREFIX.get(span_name.split(".")[0], "benchmark")


def span_durations_ms(record):
    """Span name -> list of durations [ms]."""
    names = record["span_names"]
    out = defaultdict(list)
    for name, start, end, _, _ in record["spans"]:
        out[names[name]].append((end - start) / 1e6)
    return out


def layer_split(record, in_ops):
    """Layer -> total self time [ms] over the spans inside traced ops
    (in_ops) or outside them (the replays and reference runs)."""
    names = record["span_names"]
    spans = record["spans"]
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    out = defaultdict(float)
    for span, self_ns in zip(spans, selfs):
        if (span[4] >= 0) == in_ops:
            out[layer_of(names[span[0]])] += self_ns / 1e6
    return dict(out)


def op_windows(record):
    """The untraced op latencies of each window holding at least
    MIN_WINDOW_OPS of them, or the whole run as one window when fewer than
    MIN_WINDOWS windows do."""
    by_window = defaultdict(list)
    for ms, w in zip(record["op_ms"], record["op_window"]):
        by_window[w].append(ms)
    full = [ops for _, ops in sorted(by_window.items())
            if len(ops) >= MIN_WINDOW_OPS]
    return full if len(full) >= MIN_WINDOWS else [record["op_ms"]]


def end_to_end(record):
    """The end-to-end metrics of one untraced workload run: each op figure
    is the median of its values over the run's windows (see op_windows),
    set-up the median of every set-up sample."""
    windows = op_windows(record)
    tails = [tail(ops) for ops in windows]
    m = {
        "setup_s": median(record["setup_s"]),
        # Closed loop, one client: the ops' own wall time is the steady
        # wall time (the runner's checks between ops are not counted).
        "ops_per_s": median([len(ops) / (sum(ops) / 1e3) for ops in windows]),
        "op_p50_ms": median([median(ops) for ops in windows]),
        "op_tail_ms": median([value for value, _, _ in tails]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    extra = {
        "window": f"median of {len(windows)} windows"
        if len(windows) > 1 else "whole run",
        "op_tail_pct": median([pct for _, pct, _ in tails]),
        "op_tail_beyond": min(beyond for _, _, beyond in tails),
        "ops": round(median([len(ops) for ops in windows])),
        "fail_ratio": record["failed"] / max(record["attempted"], 1),
    }
    if record["values"].get("eg_err_mev"):
        extra["eg_err_mev"] = median(record["values"]["eg_err_mev"])
    if record["values"].get("first_row_ms"):
        extra["first_row_ms"] = median(record["values"]["first_row_ms"])
    return m, extra


def per_layer(record, names):
    """Per-layer metric values of a traced run. A metric is a count the
    runner recorded, a median of recorded samples, or the median duration
    of the span named like the metric without "_ms"; a layer the workload
    does not exercise reads 0."""
    durations = span_durations_ms(record)
    values = record["values"]
    out = {}
    for name in names:
        if name in record["counts"]:
            out[name] = record["counts"][name]
        elif name == "pool.efficiency" and values.get("pool.lot_ms.1"):
            out[name] = median(values["pool.lot_ms.1"]) / (
                2.0 * median(values["pool.lot_ms.2"]))
        elif values.get(name):
            out[name] = median(values[name])
        elif durations.get(name.replace("_ms", "")):
            out[name] = median(durations[name.replace("_ms", "")])
        else:
            out[name] = 0.0
    return out


def verdict(base, new, better, bound):
    """Compare two sets of runs of one metric on one workload.

    improved   -- the new side wins at least 9 of 10 pairs (ties count for
                  neither) and the medians differ by more than the base's
                  quartile distance;
    worse      -- the new median is worse than the base median by more
                  than the bound;
    unresolved -- otherwise, when either side's quartile spread exceeds
                  the bound, unless every new run beats every base run;
    unchanged  -- otherwise.
    """
    lower = better == "lower"

    def beats(x, y):
        return x < y if lower else x > y

    mb, mn = median(base), median(new)
    worse_share = (mn - mb) / mb if lower else (mb - mn) / mb
    q1, _, q3 = quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1 \
            and beats(mn, mb):
        return "improved"
    if worse_share > bound:
        return "worse"
    every_run_better = all(beats(n, b) for b in base for n in new)
    if max(spread(base), spread(new)) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"
