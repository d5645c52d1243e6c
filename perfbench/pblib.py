"""Pure helpers of perfbench/run.py: percentiles, the self-time table,
the Prometheus dump reader and host readings. run.py does the I/O."""

import math


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it (rank ceil(p/100 * n), 1-based).
    Returns None for no samples."""
    if not values:
        return None
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def readout(values):
    """{"n": sample count, "p50": ..., "p99": ...} for the given samples.
    p99 is reported only when at least ten samples lie beyond it;
    otherwise it is None."""
    return {"n": len(values), "p50": nearest_rank(values, 50),
            "p99": nearest_rank(values, 99) if len(values) >= 1000 else None}


def infer_parents(nodes):
    """Assigns a parent to every node whose "parent" is None: the innermost
    other node on the same thread whose interval contains it. Nodes with an
    explicit parent (an id, or -1 for a root) keep it. Mutates and returns
    `nodes`; each node is a dict with id, name, start, end, tid, parent."""
    by_tid = {}
    for node in nodes:
        by_tid.setdefault(node["tid"], []).append(node)
    for group in by_tid.values():
        # Outer spans first: earlier start, then longer, then the
        # benchmark's explicit spans before program spans they enclose.
        group.sort(key=lambda n: (n["start"], -n["end"],
                                  n["parent"] is None))
        stack = []
        for node in group:
            while stack and stack[-1]["end"] < node["end"]:
                stack.pop()
            if node["parent"] is None:
                node["parent"] = stack[-1]["id"] if stack else -1
            stack.append(node)
    return nodes


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time_table(nodes):
    """Aggregates a span forest into rows keyed by the path of names from
    the root. A span's self time is its duration minus the part of its
    interval its children cover; the root's self time is the unattributed
    remainder. Returns (rows, roots): rows in depth-first order as dicts
    with path, depth, calls, total, self — totals summed over all roots."""
    children = {}
    for node in nodes:
        children.setdefault(node["parent"], []).append(node)
    rows = {}
    order = []

    def visit(node, path):
        kids = children.get(node["id"], [])
        duration = node["end"] - node["start"]
        own = duration - _covered([(k["start"], k["end"]) for k in kids],
                                  node["start"], node["end"])
        row = rows.get(path)
        if row is None:
            row = rows[path] = {"path": path, "depth": len(path) - 1,
                                "calls": 0, "total": 0.0, "self": 0.0}
            order.append(path)
        row["calls"] += 1
        row["total"] += duration
        row["self"] += own
        for kid in sorted(kids, key=lambda k: k["start"]):
            visit(kid, path + (kid["name"],))

    roots = children.get(-1, [])
    for root in sorted(roots, key=lambda r: r["start"]):
        visit(root, (root["name"],))
    # Depth-first order with siblings in first-seen order.
    first = {path: i for i, path in enumerate(order)}
    ranked = sorted(order, key=lambda p: [first[p[:i + 1]]
                                          for i in range(len(p))])
    return [rows[p] for p in ranked], len(roots)


def render_table(rows, roots, unit="ms", scale=1e-3):
    """Text rendering of self_time_table(): per-root averages."""
    if not rows or roots == 0:
        return "(no spans)"
    root_total = sum(r["total"] for r in rows if r["depth"] == 0)
    lines = ["%-52s %8s %12s %12s %7s" % ("layer", "calls", "total " + unit,
                                          "self " + unit, "self%")]
    for r in rows:
        name = "  " * r["depth"] + r["path"][-1]
        if r["depth"] == 0:
            name += " (self = unattributed)"
        lines.append("%-52s %8.2f %12.3f %12.3f %6.1f%%" % (
            name, r["calls"] / roots, r["total"] / roots * scale,
            r["self"] / roots * scale,
            100.0 * r["self"] / root_total if root_total else 0.0))
    return "\n".join(lines)


def sum_named(rows, names):
    """Total time of rows whose last path element is in `names`, counting
    only the outermost such rows (a match nested in a match is skipped)."""
    total = 0.0
    for r in rows:
        if r["path"][-1] in names and not any(
                n in names for n in r["path"][:-1]):
            total += r["total"]
    return total


def parse_prometheus(text):
    """Reads the Prometheus text dump of `dmtd --metrics-path`:
    {"values": {name: value}, "histograms": {name: {"buckets":
    [(upper_bound, cumulative_count)], "sum": s, "count": n}}}."""
    values, hists = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "_bucket{le=" in name:
            base = name[:name.index("_bucket{")]
            bound = name[name.index('le="') + 4:name.rindex('"')]
            bound = math.inf if bound == "+Inf" else float(bound)
            hists.setdefault(base, {"buckets": [], "sum": 0, "count": 0})
            hists[base]["buckets"].append((bound, float(value)))
        else:
            values[name] = float(value)
    for base, hist in hists.items():
        hist["sum"] = values.get(base + "_sum", 0.0)
        hist["count"] = values.get(base + "_count", 0.0)
    return {"values": values, "histograms": hists}


def hist_percentile(hist, p):
    """Nearest-rank percentile of a dumped histogram: the upper bound of
    the bucket holding the sample of rank ceil(p/100 * count), the same
    readout as obs::HistogramData::Percentile. 0 when empty."""
    count = hist["count"] if hist else 0
    if not count:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * count))
    for bound, cumulative in hist["buckets"]:
        if cumulative >= rank:
            return bound
    return math.inf


def hist_mean(hist):
    return hist["sum"] / hist["count"] if hist and hist["count"] else 0.0


def read_proc_stat(path="/proc/stat"):
    """(steal ticks, total ticks) of the aggregate cpu line."""
    with open(path) as f:
        fields = f.readline().split()
    ticks = [int(x) for x in fields[1:]]
    steal = ticks[7] if len(ticks) > 7 else 0
    # guest and guest_nice are already included in user and nice.
    return steal, sum(ticks[:8])


def steal_share(before, after):
    """Share of host CPU time stolen by the hypervisor between two
    read_proc_stat() readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
