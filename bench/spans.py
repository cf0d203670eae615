"""In-memory span tracing of the decider's layers, applied from outside.

The decider's modules import their collaborators by name (``from .bounds
import compute_bounds``), so each call into another layer goes through a
name in the calling module's namespace.  ``traced`` replaces those names in
``decider``, ``equation``, ``filters`` and ``powersum`` with wrappers that
record a span -- name, start, end and parent -- for every call, and puts the
originals back on exit.  The program itself is not changed.

A span's self time is its duration minus the time its children cover;
calls are synchronous and nested, so that is the sum of the children's
durations.  The tracer's own bookkeeping lands in self times too: a span
costs its parent the wrapper call, the set-up before its start is stamped
and the pop and return after its end, and costs itself the call from inside
the span and the closing timer read.  ``measure_span_cost`` measures both,
and ``take_out_span_cost`` subtracts them and reports them as the
``trace.cost`` span.  Spans are kept in flat arrays and folded into
per-name totals after each exponent, which keeps memory bounded on sweeps
that make millions of calls.
"""

import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Span name of each wrapped callee.  The first part names the layer.
SPAN_NAMES = {
    "compute_bounds": "bounds.compute_bounds",
    "corollary_K_bound": "bounds.corollary_K_bound",
    "weak_K_bound": "bounds.weak_K_bound",
    "integers_in_window": "bounds.integers_in_window",
    "filter_radical": "filters.filter_radical",
    "filter_g_ge_e_plus_1": "filters.filter_g_ge_e_plus_1",
    "filter_3f_plus_3": "filters.filter_3f_plus_3",
    "filter_w_plus_1_primes": "filters.filter_w_plus_1_primes",
    "check_modular_collapse": "collapse.check_modular_collapse",
    "powersum_batch": "powersum.batch",
    "powersum_closed": "powersum.closed",
    "build_f": "equation.build_f",
    "eval_f": "equation.eval_f",
    "nu": "arith.nu",
    "rad": "arith.rad",
    "odd_prime_factors": "arith.odd_prime_factors",
    "decide": "decider.decide",
}

# Name under which take_out_span_cost reports the tracer's bookkeeping.
TRACE_COST = "trace.cost"

# Certificate filter outcomes counted per candidate.
FILTER_COUNTS = {
    ("radical", "FAIL"): "radical_fail",
    ("g_ge_e_plus_1", "FAIL"): "g_fail",
    ("w_plus_1_primes", "FAIL"): "w1_fail",
    ("w_plus_1_primes", "INCONCLUSIVE"): "w1_inconclusive",
}

# Names each calling module looks up at run time and that lead into a layer.
CALL_SITES = {
    "decider": (
        "compute_bounds", "corollary_K_bound", "weak_K_bound", "integers_in_window",
        "filter_radical", "filter_g_ge_e_plus_1", "filter_3f_plus_3",
        "filter_w_plus_1_primes", "check_modular_collapse",
        "powersum_batch", "powersum_closed", "build_f", "eval_f", "nu", "decide",
    ),
    "equation": ("powersum_batch",),
    "filters": ("filter_radical", "powersum_batch", "nu", "rad", "odd_prime_factors"),
    "powersum": ("nu",),
}


class Tracer:
    """Span recorder: flat arrays of (name id, parent index, start, end)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self.spans_total = 0
        self.windows = 0
        self.windows_nonempty = 0
        self.integer_candidates = 0
        self.counts = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        nid = self._id(name)
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(index)
        self._start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_window(self, fn):
        """integers_in_window, also counting windows and the integers in them."""
        span = self.span
        name = SPAN_NAMES["integers_in_window"]

        def wrapper(bd):
            ws = span(name, fn, bd)
            self.windows += 1
            self.windows_nonempty += bool(ws)
            self.integer_candidates += len(ws)
            return ws

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self) -> dict[str, tuple[int, int, int]]:
        """Calls, self time (ns) and child spans per span name since the last fold.

        Call only between top-level spans; the folded spans are dropped.
        """
        if len(self._stack) != 1:
            raise RuntimeError("fold() called inside an open span")
        count = len(self._start)
        child_ns = [0] * count
        children = [0] * count
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child_ns[parent] += self._end[i] - self._start[i]
                children[parent] += 1
        totals: dict[str, tuple[int, int, int]] = {}
        for i, nid in enumerate(self._name):
            name = self.names[nid]
            calls, self_ns, child_spans = totals.get(name, (0, 0, 0))
            totals[name] = (calls + 1, self_ns + self._end[i] - self._start[i] - child_ns[i],
                            child_spans + children[i])
        self.spans_total += count
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        return totals

    def count_certificate(self, cert) -> None:
        """Count filter outcomes and exact evaluations, once per candidate."""
        for rec in cert.candidates:
            for ev in rec.per_candidate:
                self.counts["evaluations"] += ev.f_sign is not None
                for report in ev.filters:
                    key = FILTER_COUNTS.get((report.name, report.outcome))
                    if key is not None:
                        self.counts[key] += 1


def measure_span_cost(calls: int = 20_000, repeats: int = 5) -> tuple[int, int]:
    """Median (caller_ns, own_ns) of a wrapped call beyond a plain call.

    A span times a loop of wrapped no-op calls, then the same loop of plain
    calls; the difference in its self time per call is what a span costs its
    parent, and the no-op spans' own self time is what it costs itself.
    """

    def noop(x):
        return x

    def loop(fn):
        for i in range(calls):
            fn(i)

    caller, own = [], []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.span("root", loop, tracer.wrap("child", noop))
        wrapped = tracer.fold()
        tracer.span("root", loop, noop)
        plain = tracer.fold()
        caller.append((wrapped["root"][1] - plain["root"][1]) / calls)
        own.append(wrapped["child"][1] / calls)
    return round(statistics.median(caller)), round(statistics.median(own))


def take_out_span_cost(totals: dict, caller_ns: float, own_ns: float) -> dict:
    """Per-name (calls, self time) from fold() totals, less the tracer's cost.

    Each span's self time loses ``own_ns`` once and ``caller_ns`` once per
    child span; what is taken out is reported as TRACE_COST.
    """
    result = {}
    spans = cost_total = 0
    for name, (calls, self_ns, child_spans) in totals.items():
        cost = child_spans * caller_ns + calls * own_ns
        result[name] = (calls, self_ns - cost)
        spans += calls
        cost_total += cost
    result[TRACE_COST] = (spans, cost_total)
    return result


@contextmanager
def traced(tracer: Tracer):
    """Patch every call site in CALL_SITES to record spans; restore on exit."""
    import powerbalance.decider
    import powerbalance.equation
    import powerbalance.filters
    import powerbalance.powersum

    modules = {
        "decider": powerbalance.decider,
        "equation": powerbalance.equation,
        "filters": powerbalance.filters,
        "powersum": powerbalance.powersum,
    }
    saved = []
    try:
        for module_name, names in CALL_SITES.items():
            module = modules[module_name]
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                if name == "integers_in_window":
                    wrapper = tracer.wrap_window(original)
                else:
                    wrapper = tracer.wrap(SPAN_NAMES[name], original)
                setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
