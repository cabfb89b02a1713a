"""Spans and counts recorded around the public functions of each fallcascade
module, from outside the package.

A wrapper is installed under every name a caller looks the function up by:
`distill` and `cascade` import `train`, `forward` and `extract_features` by
name, `evaluate` imports the preprocessing and routing functions by name, and
`cli` imports `loso_evaluate` by name. Patching only the defining module would
miss those calls and report 0 s for a busy layer.

Spans stay in memory until `write_spans`. A span's self time is its duration
minus the time its child spans cover; calls on one thread nest, so that is the
sum of the children's durations.
"""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from fallcascade import (cascade, cli, dataset, distill, edge_threshold,
                         evaluate, nn, perfmodel, preprocess)


class Span:
    __slots__ = ("name", "parent", "request", "group", "start", "end",
                 "child_s", "attrs")

    def __init__(self, name, parent, request, group):
        self.name = name
        self.parent = parent
        self.request = request
        self.group = group
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _first(args, kwargs, name):
    """The first parameter of a per-window call, without the cost of _bind."""
    return args[0] if args else kwargs[name]


def _fit_key(model, X, y, cfg, loss_spec) -> str:
    """Identity of one training fit: spec, initial weights, train config, fold
    data, loss and the frozen upstream logits the loss distils from."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((model.spec, cfg, type(loss_spec).__name__,
                   getattr(loss_spec, "cfg", None))).encode())
    upstream = [getattr(loss_spec, n) for n in ("teacher_logits", "ta_logits")
                if hasattr(loss_spec, n)]
    for a in (*model.weights, *model.biases, np.asarray(X, dtype=np.float64),
              np.asarray(y, dtype=np.int64), *upstream):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _before_train(tracer, fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    loss_spec = a.get("loss_spec")
    return {"tier": a["model"].spec.tier.lower(),
            "kd": isinstance(loss_spec, (distill.DualLoss, distill.TriLoss)),
            "key": _fit_key(a["model"], a["X"], a["y"], a["cfg"], loss_spec)}


def _after_train(tracer, span, result):
    tracer.count("nn.fits")
    tracer.count("distill.kd_fits", span.attrs["kd"])
    tracer.fit_keys[span.group].add(span.attrs["key"])


def _before_run_sample(tracer, fn, args, kwargs):
    c = _first(args, kwargs, "cascade")
    return {"names": [s.name for s in c.stations],
            "models": {id(s.model): s.name for s in c.stations[1:]}}


def _after_run_sample(tracer, span, decision):
    names = span.attrs["names"]
    span.attrs["exit"] = names[decision.decided_at]
    tracer.count("cascade.routed")
    for i in range(decision.decided_at + 1):
        tracer.count(f"cascade.processed.{names[i]}")
    tracer.count(f"cascade.decided.{names[decision.decided_at]}")


def _before_forward(tracer, fn, args, kwargs):
    return {"model": id(_first(args, kwargs, "model"))}


def _before_loso(tracer, fn, args, kwargs):
    cfg = _bind(fn, args, kwargs)["cfg"]
    return {"variant": cli._variant_token(cfg.kd_variant, cfg.layers)}


def _count_result(key):
    def after(tracer, span, result):
        tracer.count(key, len(result))
    return after


def _count_one(key):
    def after(tracer, span, result):
        tracer.count(key)
    return after


# span name -> (the names callers look the function up by, hook before the
# call returning span attributes, hook after the call receiving the result)
BOUNDARIES = {
    "cli.main": ([(cli, "main")], None, None),
    "cli.parse_config": ([(cli, "parse_config")], None, None),
    "cli.write_report": ([(cli, "write_report")], None, None),
    "dataset.load_manifest": ([(dataset, "load_manifest")], None,
                              _count_result("dataset.traces")),
    "dataset.synth_generate": ([(dataset, "synth_generate")], None,
                               _count_result("dataset.traces")),
    "preprocess.extract_window": ([(preprocess, "extract_window"),
                                   (evaluate, "extract_window")], None,
                                  _count_one("preprocess.windows")),
    "preprocess.feature_matrix": ([(preprocess, "feature_matrix"),
                                   (evaluate, "feature_matrix")], None, None),
    "preprocess.extract_features": ([(preprocess, "extract_features"),
                                     (evaluate, "extract_features"),
                                     (cascade, "extract_features")], None,
                                    _count_one("preprocess.feature_rows")),
    "edge_threshold.fit_thresholds": ([(edge_threshold, "fit_thresholds"),
                                       (evaluate, "fit_thresholds")], None, None),
    "edge_threshold.gate": ([(cascade, "window_peaks"),
                             (cascade, "classify_tc")], None, None),
    "nn.train": ([(nn, "train"), (distill, "train")],
                 _before_train, _after_train),
    "nn.forward": ([(nn, "forward"), (distill, "forward"), (cascade, "forward")],
                   _before_forward, None),
    "distill.distill_train": ([(distill, "distill_train")], None, None),
    "distill.takd_pipeline": ([(distill, "takd_pipeline")], None, None),
    "distill.loss": ([(distill.DualLoss, "value_and_grad"),
                      (distill.TriLoss, "value_and_grad")], None, None),
    "cascade.build_cascade": ([(cascade, "build_cascade"),
                               (evaluate, "build_cascade")], None, None),
    "cascade.run_dataset": ([(cascade, "run_dataset"),
                             (evaluate, "run_dataset")], None, None),
    "cascade.run_sample": ([(cascade, "run_sample")],
                           _before_run_sample, _after_run_sample),
    "perfmodel.cascade_latency": ([(perfmodel, "cascade_latency")], None, None),
    "evaluate.loso_evaluate": ([(evaluate, "loso_evaluate"),
                                (cli, "loso_evaluate")], _before_loso, None),
}
# counted on every call but given no span: one call per SGD step
COUNTED = {"nn.sgd_steps": (nn, "grad")}
# a routed window is its own request, also inside a batch pass
NEW_REQUEST = {"cascade.run_sample"}


@contextlib.contextmanager
def patched(replacements):
    """Install {(owner, attr): replacement} and restore the originals."""
    originals = {}
    try:
        for (owner, attr), value in replacements.items():
            originals[(owner, attr)] = getattr(owner, attr)
            setattr(owner, attr, value)
        yield
    finally:
        for (owner, attr), value in originals.items():
            setattr(owner, attr, value)


class Tracer:
    """Records spans and counts at the boundaries above while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.fit_keys = defaultdict(set)
        self.group = "setup"
        self._stack = []
        self._requests = 0

    def count(self, key, n=1):
        self.counts[self.group][key] += n

    def _open(self, name, new_request):
        parent = self._stack[-1] if self._stack else None
        if parent is None or new_request:
            self._requests += 1
            request = self._requests
        else:
            request = parent.request
        span = Span(name, parent, request, self.group)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name):
        """A span of the benchmark's own, grouping one set-up or pass."""
        span = self._open(name, True)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, before, after):
        new_request = name in NEW_REQUEST
        self.count(f"calls.{name}", 0)

        def wrapper(*args, **kwargs):
            attrs = before(self, fn, args, kwargs) if before else None
            span = self._open(name, new_request)
            span.attrs = attrs
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.count(f"calls.{name}")
            if after:
                after(self, span, result)
            return result
        return wrapper

    def _counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        replacements = {}
        for name, (sites, before, after) in BOUNDARIES.items():
            for owner, attr in sites:
                replacements[(owner, attr)] = self._wrap(
                    name, getattr(owner, attr), before, after)
        for key, (owner, attr) in COUNTED.items():
            replacements[(owner, attr)] = self._counter(key, getattr(owner, attr))
        with patched(replacements):
            yield self

    def calls(self) -> Counter:
        """Calls per boundary over every group."""
        total = Counter()
        for counts in self.counts.values():
            for key, n in counts.items():
                if key.startswith("calls."):
                    total[key[len("calls."):]] += n
        return total

    def group_metrics(self, group, stations) -> dict:
        """Per-layer numbers of one group (the set-up or one pass)."""
        spans = [s for s in self.spans if s.group == group]
        counts = self.counts[group]
        m = Counter()

        def busy(name):
            return sum(s.duration for s in spans if s.name == name)

        m["dataset.load_s"] = busy("dataset.load_manifest")
        m["dataset.synth_s"] = busy("dataset.synth_generate")
        m["dataset.traces"] = counts["dataset.traces"]
        m["preprocess.window_s"] = busy("preprocess.extract_window")
        m["preprocess.windows"] = counts["preprocess.windows"]
        m["preprocess.feature_s.train"] = busy("preprocess.feature_matrix")
        m["preprocess.feature_s.route"] = sum(
            s.duration for s in spans if s.name == "preprocess.extract_features"
            and s.parent is not None and s.parent.name != "preprocess.feature_matrix")
        m["preprocess.feature_rows"] = counts["preprocess.feature_rows"]
        m["edge_threshold.fit_s"] = busy("edge_threshold.fit_thresholds")
        m["edge_threshold.gate_s"] = busy("edge_threshold.gate")
        m["cascade.routed"] = counts["cascade.routed"]
        for tier in ("teacher", "ta", "student"):
            m[f"nn.train_s.{tier}"] = sum(
                s.duration for s in spans
                if s.name == "nn.train" and s.attrs["tier"] == tier)
        m["nn.fits"] = counts["nn.fits"]
        m["nn.distinct_fits"] = len(self.fit_keys[group])
        m["nn.sgd_steps"] = counts["nn.sgd_steps"]
        m["nn.forward_s"] = busy("nn.forward")
        m["distill.kd_fits"] = counts["distill.kd_fits"]
        m["distill.loss_s"] = sum(s.duration for s in spans if s.name == "distill.loss")
        m["distill.self_s"] = sum(
            s.self_s for s in spans
            if s.name in ("distill.distill_train", "distill.takd_pipeline"))
        m["cascade.route_s"] = busy("cascade.run_dataset") + sum(
            s.duration for s in spans if s.name == "cascade.run_sample"
            and (s.parent is None or s.parent.name != "cascade.run_dataset"))
        for st in stations:
            m[f"cascade.processed.{st}"] = counts[f"cascade.processed.{st}"]
            m[f"cascade.decided.{st}"] = counts[f"cascade.decided.{st}"]
        # a classifier station's time is its forward pass; the gate's is
        # edge_threshold.gate_s
        for st in stations[1:]:
            m[f"cascade.station_s.{st}"] = 0.0
        for s in spans:
            if (s.name == "nn.forward" and s.parent is not None
                    and s.parent.name == "cascade.run_sample"):
                st = s.parent.attrs["models"][s.attrs["model"]]
                m[f"cascade.station_s.{st}"] += s.duration
        m["perfmodel.latency_s"] = busy("perfmodel.cascade_latency")
        for s in spans:
            if s.name == "evaluate.loso_evaluate":
                m[f"evaluate.loso_s.{s.attrs['variant']}"] += s.duration
        m["evaluate.self_s"] = sum(s.self_s for s in spans
                                   if s.name == "evaluate.loso_evaluate")
        m["cli.parse_s"] = busy("cli.parse_config")
        m["cli.write_s"] = busy("cli.write_report")
        m["cli.self_s"] = sum(s.self_s for s in spans if s.name == "cli.main")
        return dict(m)

    def exit_latencies(self, groups) -> dict:
        """{station: [run_sample seconds of windows decided there]}."""
        out = defaultdict(list)
        for s in self.spans:
            if s.name == "cascade.run_sample" and s.group in groups:
                out[s.attrs["exit"]].append(s.duration)
        return out

    def write_spans(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            f.write("span,parent,request,group,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent), "") if s.parent else ""
                f.write(f"{i},{parent},{s.request},{s.group},{s.name},"
                        f"{s.start!r},{s.end!r}\n")


def layer_metrics(tracer: Tracer, passes, stations) -> dict:
    """Per-layer metrics of the traced run: each time or count is the set-up's
    plus the median traced pass's, so work done only in set-up (training, on
    `route`) shows beside work done in every pass."""
    setup = tracer.group_metrics("setup", stations)
    per_pass = [tracer.group_metrics(p, stations) for p in passes]
    keys = sorted(set(setup).union(*per_pass))
    out = {k: setup.get(k, 0) + statistics.median_low(p.get(k, 0) for p in per_pass)
           for k in keys}
    # the program's dataset: the one a pass loads or synthesises, else set-up's
    traces = (statistics.median_low(p["dataset.traces"] for p in per_pass)
              or setup["dataset.traces"])
    routed = out.pop("cascade.routed")
    fits = out["nn.fits"]
    out["dataset.traces"] = traces
    out["preprocess.feature_rows_per_trace"] = out["preprocess.feature_rows"] / traces
    out["edge_threshold.gate_decided_share"] = (
        out[f"cascade.decided.{stations[0]}"] / routed)
    out["nn.distinct_fit_share"] = out.pop("nn.distinct_fits") / fits if fits else 1.0
    for st, lat in tracer.exit_latencies(set(passes)).items():
        out[f"cascade.exit_us_p50.{st}"] = statistics.median(lat) * 1e6
    return out
