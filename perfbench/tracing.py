"""Span tracing of zecomm from outside the package, and the per-layer metrics
computed from the spans.

The layers are zecomm's modules.  `Tracer.install` replaces each public
function of a layer module (plus the sampler `channels._sample_column`) in
every zecomm namespace that binds it, so calls across modules are recorded
too.  A span is (name, start, end, parent, count); spans stay in memory and
are written once, when the round ends.  `numeric` is not wrapped, nor are
the per-entry permutation helpers of `channels`: they run once per table
entry, so wrapping them would make tracing cost dominate; their time shows
as self time of the layer that calls them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

#: zecomm module -> layer; the independence-number kernels belong to graphs
LAYER_OF_MODULE = {
    "cli": "cli",
    "verify": "verify",
    "channels": "channels",
    "behaviors": "behaviors",
    "quantum": "quantum",
    "graphs": "graphs",
    "_mispure": "graphs",
    "_miscore": "graphs",
    "protocols": "protocols",
}
LAYERS = ("cli", "verify", "channels", "behaviors", "quantum", "graphs", "protocols")

#: private functions that are layer work worth a span
EXTRA_WRAPPED = {"channels._sample_column"}
#: public functions called once per table entry
UNWRAPPED = {"channels.pi_perm", "channels.pi_hat", "channels.mm_block_anchor", "channels.mm_block_of"}

#: name of the span the benchmark opens around each job
JOB_SPAN = "bench.job"


def _entries(result) -> int:
    if hasattr(result, "scenario"):
        s = result.scenario
        return s.x_card * s.y_card * s.a_card * s.b_card
    return result.n_inputs * result.n_outputs


def assisted_branches(bound: dict, result) -> int:
    """Branches `exhaustive_assisted_search` visits: the 1-based rank of the
    returned encoder in its canonical order (box inputs, then channel inputs,
    each `itertools.product` order), or the whole space on a refutation.
    Computed from the answer, not counted by the program."""
    c, box, k = bound["c"], bound["box"], bound["k"]
    s = box.scenario
    n, x, a = c.n_inputs, s.x_card, s.a_card
    found, protocol = result
    if not found:
        return x**k * n ** (k * a)
    box_rank = 0
    for g in range(k):
        box_rank = box_rank * x + protocol.enc_box_input[g]
    channel_rank = 0
    for g in range(k):
        for out in range(a):
            channel_rank = channel_rank * n + protocol.enc_channel_input[(g, out)]
    return box_rank * n ** (k * a) + channel_rank + 1


#: qualified name -> count(bound arguments, result) stored on the span
COUNTERS = {
    **{f"channels.{f}": lambda b, r: _entries(r)
       for f in ("make_channel", "channel_from_rule", "make_nm", "make_mm", "identity_channel", "tensor_channels")},
    **{f"behaviors.{f}": lambda b, r: _entries(r)
       for f in ("make_behavior", "make_extremal_box", "make_rtilde_box", "make_jones_box",
                 "make_local_deterministic", "mix_behaviors", "uniform_behavior", "tensor_behaviors")},
    "graphs.independence_number": lambda b, r: b["g"].vertex_count,
    "protocols.monte_carlo_success": lambda b, r: b["trials"],
    "protocols.best_unassisted_success": lambda b, r: b["c"].n_inputs ** b["k"],
    "protocols.exhaustive_assisted_search": assisted_branches,
}


class Tracer:
    """Records spans of wrapped zecomm functions and of benchmark jobs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._open = [-1]
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.count.append(-1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def job_span(self) -> int:
        return self.begin(self._name_id(JOB_SPAN))

    def wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn) if counter else None
        begin, finish, count = self.begin, self.finish, self.count

        def traced(*args, **kwargs):
            idx = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count[idx] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind it in all zecomm namespaces."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "zecomm" or name.startswith("zecomm."))}
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            if short not in LAYER_OF_MODULE:
                continue
            for attr, obj in vars(mod).items():
                qualname = f"{short}.{attr}"
                if not inspect.isfunction(obj) or obj.__module__ != modname or qualname in UNWRAPPED:
                    continue
                if attr.startswith("_") and qualname not in EXTRA_WRAPPED:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(qualname, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, original in self._restore:
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans: names and length to ``path``.json, arrays to ``path``.bin."""
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.start)}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end, self.count):
                arr.tofile(fh)


class Spans:
    """Spans read back from a trace file (or built by hand in tests)."""

    def __init__(self, names, name, parent, start, end, count):
        self.names, self.name, self.parent = list(names), list(name), list(parent)
        self.start, self.end, self.count = list(start), list(end), list(count)
        self.factor = [1.0] * len(self.start)
        self._by_name: dict[int, list[int]] = {}
        for idx, nid in enumerate(self.name):
            self._by_name.setdefault(nid, []).append(idx)

    @classmethod
    def read(cls, path: str) -> "Spans":
        with open(path + ".json") as fh:
            header = json.load(fh)
        n = header["spans"]
        arrays = [array(code) for code in "iiddq"]
        with open(path + ".bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        return cls(header["names"], *arrays)

    def __len__(self) -> int:
        return len(self.start)

    def scale_jobs(self, factors: list[float]) -> None:
        """Scale the times of every span by the factor of its job; the k-th
        root span is job k (every span of a traced round lies in a job)."""
        job, roots = [], 0
        for p in self.parent:
            if p >= 0:
                job.append(job[p])
            else:
                job.append(roots)
                roots += 1
        self.factor = [factors[j] for j in job]

    def qualname(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        durations = [(e - s) * f for s, e, f in zip(self.start, self.end, self.factor)]
        times = list(durations)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                times[p] -= durations[idx]
        return times

    def outermost(self, names: set, outside: frozenset = frozenset()) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names`` or ``outside``."""
        blocked = self._ids(names | outside)
        return [idx for idx in self._spans_named(names) if not self._under(idx, blocked)]

    def inside(self, names: set, ancestors: set) -> list[int]:
        """Spans named in ``names`` with some ancestor named in ``ancestors``."""
        blocked = self._ids(ancestors)
        return [idx for idx in self._spans_named(names) if self._under(idx, blocked)]

    def _ids(self, names: set) -> set:
        return {i for i, n in enumerate(self.names) if n in names}

    def _spans_named(self, names: set) -> list[int]:
        return sorted(idx for nid in self._ids(names) for idx in self._by_name.get(nid, ()))

    def _under(self, idx: int, name_ids: set) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] in name_ids:
                return True
            p = self.parent[p]
        return False

    def duration(self, spans: list[int]) -> float:
        return sum((self.end[i] - self.start[i]) * self.factor[i] for i in spans)

    def counted(self, spans: list[int]) -> int:
        return sum(self.count[i] for i in spans)


def layer_of(qualname: str) -> str:
    module = qualname.partition(".")[0]
    return LAYER_OF_MODULE.get(module, "bench")


def _q(layer: str, *funcs: str) -> set:
    return {f"{layer}.{f}" for f in funcs}


CHANNEL_BUILD = _q("channels", "make_channel", "channel_from_rule", "make_nm", "make_mm", "identity_channel",
                   "tensor_channels")
CHANNEL_IO = _q("channels", "channel_to_json", "channel_from_json", "save_channel", "load_channel")
CHANNEL_SAMPLE = _q("channels", "_sample_column", "sample_output")
BEHAVIOR_BUILD = _q("behaviors", "make_behavior", "make_extremal_box", "make_rtilde_box", "make_jones_box",
                    "make_local_deterministic", "mix_behaviors", "uniform_behavior", "tensor_behaviors")
BEHAVIOR_IO = _q("behaviors", "behavior_to_json", "behavior_from_json", "save_behavior", "load_behavior")
BEHAVIOR_MARGINAL = _q("behaviors", "marginal_alice", "marginal_bob", "conditional_bob")
BEHAVIOR_NS = _q("behaviors", "is_no_signaling", "validate_behavior")
QUANTUM_BUILD = _q("quantum", "behavior_from_quantum", "make_max_entangled", "make_singlet",
                   "planar_qubit_projectors", "make_i3322_model", "make_i3322_rational_table", "make_cglmp_behavior")
SCHEME_BUILD = _q("protocols", "make_theorem2_protocol", "make_theorem3_protocol", "tensor_protocols")
EXACT = _q("protocols", "exact_success", "per_message_success", "is_zero_error")
MC = _q("protocols", "monte_carlo_success")
UNASSISTED = _q("protocols", "best_unassisted_success")
ASSISTED = _q("protocols", "exhaustive_assisted_search")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, wall_s: float, verify_checks_passed: int) -> dict[str, float]:
    """Per-layer metrics of one traced round whose job list took ``wall_s``."""
    m: dict[str, float] = {}
    self_t = spans.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for idx, t in enumerate(self_t):
        layer = layer_of(spans.qualname(idx))
        if layer != "bench":
            layer_self[layer] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["bench.self_s"] = wall_s - sum(layer_self.values())

    m["cli.calls"] = len(spans.outermost({"cli.main"}))
    m["verify.run_s"] = spans.duration(spans.outermost({"verify.run_verification"}))
    m["verify.checks_passed"] = verify_checks_passed

    build = spans.outermost(CHANNEL_BUILD, frozenset(CHANNEL_IO))
    m["channels.build_calls"] = len(build)
    m["channels.build_s"] = spans.duration(build)
    m["channels.entries_built"] = spans.counted(build)
    m["channels.entries_per_s"] = _ratio(m["channels.entries_built"], m["channels.build_s"])
    m["channels.io_s"] = spans.duration(spans.outermost(CHANNEL_IO))
    sample = spans.outermost(CHANNEL_SAMPLE)
    m["channels.sample_calls"] = len(sample)
    m["channels.sample_s"] = spans.duration(sample)

    build = spans.outermost(BEHAVIOR_BUILD, frozenset(BEHAVIOR_IO))
    m["behaviors.build_s"] = spans.duration(build)
    m["behaviors.entries_built"] = spans.counted(build)
    marginal = spans.outermost(BEHAVIOR_MARGINAL)
    m["behaviors.marginal_calls"] = len(marginal)
    m["behaviors.marginal_s"] = spans.duration(marginal)
    m["behaviors.ns_check_s"] = spans.duration(spans.outermost(BEHAVIOR_NS))
    m["behaviors.io_s"] = spans.duration(spans.outermost(BEHAVIOR_IO))

    m["quantum.build_s"] = spans.duration(spans.outermost(QUANTUM_BUILD))

    conf = spans.outermost({"graphs.confusability_graph"})
    m["graphs.confusability_calls"] = len(conf)
    m["graphs.confusability_s"] = spans.duration(conf)
    m["graphs.strong_product_s"] = spans.duration(spans.outermost({"graphs.strong_product"}))
    alpha = spans.outermost({"graphs.independence_number"})
    m["graphs.alpha_calls"] = len(alpha)
    m["graphs.alpha_vertices"] = spans.counted(alpha)
    m["graphs.alpha_s"] = spans.duration(alpha)

    m["protocols.scheme_build_s"] = spans.duration(spans.outermost(SCHEME_BUILD))
    exact = spans.outermost(EXACT, frozenset(MC | ASSISTED))
    m["protocols.exact_calls"] = len(exact)
    m["protocols.exact_s"] = spans.duration(exact)
    mc = spans.outermost(MC)
    m["protocols.mc_trials"] = spans.counted(mc)
    m["protocols.mc_s"] = spans.duration(mc)
    m["protocols.mc_us_per_trial"] = 1e6 * _ratio(m["protocols.mc_s"], m["protocols.mc_trials"])
    unassisted = spans.outermost(UNASSISTED)
    m["protocols.unassisted_encoders"] = spans.counted(unassisted)
    m["protocols.unassisted_s"] = spans.duration(unassisted)
    assisted = spans.outermost(ASSISTED)
    m["protocols.assisted_branches"] = spans.counted(assisted)
    m["protocols.assisted_completions"] = len(spans.inside({"protocols.is_zero_error"}, ASSISTED))
    m["protocols.assisted_completion_ratio"] = _ratio(m["protocols.assisted_completions"],
                                                      m["protocols.assisted_branches"])
    m["protocols.assisted_s"] = spans.duration(assisted)
    m["protocols.assisted_us_per_branch"] = 1e6 * _ratio(m["protocols.assisted_s"], m["protocols.assisted_branches"])
    m["trace.spans"] = len(spans)
    return m


#: every per-layer metric: (name, unit, better, end-to-end metric and
#: workload it should move).  BENCHMARK.json's per_layer lists the same.
PER_LAYER = (
    ("cli.calls", "count", "lower", "job_p50_ms on paper"),
    ("cli.self_s", "s", "lower", "job_p50_ms on paper"),
    ("verify.run_s", "s", "lower", "wall_s on paper"),
    ("verify.checks_passed", "count", "higher", "wall_s on paper"),
    ("verify.self_s", "s", "lower", "wall_s on paper"),
    ("channels.build_calls", "count", "lower", "wall_s, job_p50_ms, peak_rss_mib on paper"),
    ("channels.build_s", "s", "lower", "wall_s, job_p50_ms, peak_rss_mib on paper"),
    ("channels.entries_built", "count", "lower", "wall_s, job_p50_ms, peak_rss_mib on paper"),
    ("channels.entries_per_s", "1/s", "higher", "wall_s, job_p50_ms, peak_rss_mib on paper"),
    ("channels.io_s", "s", "lower", "wall_s, job_p50_ms on paper"),
    ("channels.sample_calls", "count", "lower", "wall_s on sampling"),
    ("channels.sample_s", "s", "lower", "wall_s on sampling"),
    ("channels.self_s", "s", "lower", "wall_s on paper and sampling"),
    ("behaviors.build_s", "s", "lower", "wall_s on paper"),
    ("behaviors.entries_built", "count", "lower", "wall_s on paper"),
    ("behaviors.marginal_calls", "count", "lower", "wall_s on sampling"),
    ("behaviors.marginal_s", "s", "lower", "wall_s on sampling"),
    ("behaviors.ns_check_s", "s", "lower", "wall_s on paper"),
    ("behaviors.io_s", "s", "lower", "wall_s on paper"),
    ("behaviors.self_s", "s", "lower", "wall_s on paper and sampling"),
    ("quantum.build_s", "s", "lower", "wall_s on paper; setup_s everywhere through the numpy import"),
    ("quantum.self_s", "s", "lower", "wall_s on paper"),
    ("graphs.confusability_calls", "count", "lower", "wall_s on paper"),
    ("graphs.confusability_s", "s", "lower", "wall_s on paper"),
    ("graphs.strong_product_s", "s", "lower", "wall_s, job_tail_ms on shannon"),
    ("graphs.alpha_calls", "count", "lower", "wall_s, job_tail_ms on shannon"),
    ("graphs.alpha_vertices", "count", "lower", "wall_s, job_tail_ms on shannon"),
    ("graphs.alpha_s", "s", "lower", "wall_s, job_tail_ms on shannon"),
    ("graphs.self_s", "s", "lower", "wall_s, job_tail_ms on shannon"),
    ("protocols.scheme_build_s", "s", "lower", "wall_s on paper"),
    ("protocols.exact_calls", "count", "lower", "wall_s on paper"),
    ("protocols.exact_s", "s", "lower", "wall_s on paper"),
    ("protocols.mc_trials", "count", "higher", "wall_s, job_p50_ms on sampling"),
    ("protocols.mc_s", "s", "lower", "wall_s, job_p50_ms on sampling"),
    ("protocols.mc_us_per_trial", "us", "lower", "wall_s, job_p50_ms on sampling"),
    ("protocols.unassisted_encoders", "count", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.unassisted_s", "s", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.assisted_branches", "count", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.assisted_completions", "count", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.assisted_completion_ratio", "fraction", "higher", "wall_s, job_tail_ms on search"),
    ("protocols.assisted_us_per_branch", "us", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.assisted_s", "s", "lower", "wall_s, job_tail_ms on search"),
    ("protocols.self_s", "s", "lower", "wall_s on sampling and search"),
    ("bench.self_s", "s", "lower", "none: the benchmark's own time inside the traced round"),
    ("trace.spans", "count", "lower", "none: spans recorded per traced round"),
    ("trace.wall_s", "s", "lower", "none: wall_s of a traced round"),
    ("trace.untraced_wall_s", "s", "lower", "none: wall_s of the untraced rounds of the same run"),
    ("trace.overhead_s", "s", "lower", "none: trace.wall_s minus trace.untraced_wall_s"),
)

#: counts the benchmark computes rather than the program counting them
COMPUTED = {"protocols.unassisted_encoders", "protocols.assisted_branches"}
