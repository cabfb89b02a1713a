"""The benchmark's three workloads: set-up from a seed, one timed pass, and the
checks that make a pass count as correct.

`escalate` and `default` time `fallcascade run` through `cli.main`, then route
the run's own cascades and test windows again, one at a time, through
`run_sample`; `route` times the deployed cascade through `run_dataset` and
`run_sample`. Every input is generated from the workload seed; the program
receives only those inputs.
"""
from __future__ import annotations

import configparser
import contextlib
import dataclasses
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np
from fallcascade import (cascade, cli, dataset, distill, edge_threshold,
                         evaluate, nn, preprocess)

from tracing import patched

VARIANTS = "nokd:dual,dualkd:dual,triplekd:triple"
STATIONS = ("ed_gate", "mec1", "mec2", "cc")

# criterion 6's experiment (tests/test_acceptance.py): heavy sensor noise and
# overlapping peak ranges keep most windows in the gate's uncertain band
KD_SPEC = dict(falls_per_subject=20, adls_per_subject=20,
               fall_peak_range=(1.5, 4.0), adl_peak_range=(0.8, 3.0),
               trace_duration_s=2.0, noise_sd=0.5, sample_rate_hz=50)
KD_WINDOW = preprocess.WindowSpec(ws_f_s=0.6, ws_b_s=0.5)
KD_TRAIN = dict(epochs=30, batch_size=32, learning_rate=0.01, momentum=0.9)
KD = distill.KDConfig(lam=0.7, temperature=20.0)

ESCALATE_CONFIG = """\
[dataset]
source = manifest
manifest = {manifest}

[window]
ws_f_s = 0.6
ws_b_s = 0.5

[tiers]
student = 54,8,2
ta = 54,16,2
teacher = 54,32,2

[train]
epochs = {epochs}
batch_size = 32
learning_rate = 0.01

[kd]
lambda = 0.7
kd_temperature = 20.0

[run]
variants = {variants}
"""


@dataclass(frozen=True)
class Sizes:
    escalate_subjects: int = 6
    per_class: int = 20
    epochs: int = 30
    route_train_subjects: int = 5
    route_heldout_subjects: int = 100
    default_overrides: tuple = ()  # (section, key, value) in the default config


FULL = Sizes()
# a few seconds in all, for the benchmark's own smoke test
TINY = Sizes(escalate_subjects=3, per_class=6, epochs=3, route_train_subjects=3,
             route_heldout_subjects=2,
             default_overrides=(("dataset", "n_subjects", "3"), ("train", "epochs", "3")))


def _seconds():
    return np.empty(0)


@dataclass
class Pass:
    """One timed pass: its operations, checks and timings. The k-th entry of
    each array of seconds is the same work in every pass of a run."""

    ops: int
    run_s: float             # wall time of the pass
    outcome: dict            # deterministic facts, pinned per seed
    blob: bytes              # output; its digest, compared across passes
    failures: list = field(default_factory=list)
    parts_s: np.ndarray = field(default_factory=_seconds)   # the pass, in parts
    routed: int = 0          # windows routed in batch
    route_s: np.ndarray = field(default_factory=_seconds)   # each batch call
    decide_s: np.ndarray = field(default_factory=_seconds)  # each decision


def conservation(name, processed, decided, total) -> list:
    """Every window is decided once, and a station sees what the one below
    it did not decide."""
    out = []
    if sum(decided) != total or processed[0] != total:
        out.append(f"{name}: {sum(decided)} decided, {processed[0]} entered, "
                   f"{total} windows")
    for i in range(len(processed) - 1):
        if processed[i + 1] != processed[i] - decided[i]:
            out.append(f"{name}: station {i + 1} processed {processed[i + 1]}, "
                       f"expected {processed[i] - decided[i]}")
    return out


def escalation_guard(name, names, processed, decided, escalates) -> list:
    """The mix the workload was chosen for: an escalating workload reaches
    every classifier station and the gate decides under half the windows; the
    control's gate decides them all."""
    share = decided[0] / processed[0]
    if escalates:
        idle = [n for n, p in zip(names[1:], processed[1:]) if p == 0]
        out = [f"{name}: classifier station {n} processed 0 windows" for n in idle]
        if share >= 0.5:
            out.append(f"{name}: gate decided {share:.3f} of windows, need < 0.5")
        return out
    if share != 1.0:
        return [f"{name}: gate decided {share:.3f} of windows, need 1.0"]
    return []


def confusion(report) -> dict:
    """tp/tn/fp/fn of a routing report, whether it holds them as fields of its
    own or in a field that holds a confusion matrix."""
    holder = report if hasattr(report, "tp") else next(
        v for v in vars(report).values() if hasattr(v, "tp"))
    return {k: int(getattr(holder, k)) for k in ("tp", "tn", "fp", "fn")}


def routing_facts(report, names) -> dict:
    """What a `run_dataset` report says about behaviour, in the form the
    report files give it, and nothing of the report's schema."""
    return {"confusion": confusion(report), "stations": list(names),
            "processed": [int(n) for n in report.processed],
            "decided": [int(n) for n in report.decided]}


def decide_each(c, windows):
    """Route the windows one at a time through `run_sample`, as a single
    closed-loop client: (decisions, seconds per decision)."""
    clock = time.perf_counter
    decisions, decide_s = [], np.empty(len(windows))
    for k, w in enumerate(windows):
        t = clock()
        decisions.append(cascade.run_sample(c, w))
        decide_s[k] = clock() - t
    return decisions, decide_s


def single_matches_batch(name, batch, names, windows, decisions) -> list:
    """The single-window decisions must sum to the batch report's facts."""
    n = len(names)
    single = {"confusion": dict(tp=0, tn=0, fp=0, fn=0), "stations": list(names),
              "processed": [0] * n, "decided": [0] * n}
    for w, d in zip(windows, decisions):
        for i in range(d.decided_at + 1):
            single["processed"][i] += 1
        single["decided"][d.decided_at] += 1
        fall = d.final == dataset.FALL
        actual = w.label == dataset.FALL
        single["confusion"][("t" if fall == actual else "f") + ("p" if fall else "n")] += 1
    return [f"{name}: run_sample {k} {v} != run_dataset {batch[k]}"
            for k, v in single.items() if v != batch[k]]


class RoutingProbe:
    """Times the batch routing calls that `loso_evaluate` makes inside a run,
    by two clock reads around each under the name `evaluate` looks
    `run_dataset` up by. With `replay`, each call's cascade and windows are
    then routed again one at a time and checked against its report, and the
    time that takes is kept apart so the pass can leave it out of `run_s`."""

    def __init__(self, replay):
        self.replay = replay
        self.routed = 0
        self.route_s = []
        self.replay_s = 0.0
        self.decide_s = [np.empty(0)]
        self.failures = []

    @contextlib.contextmanager
    def installed(self):
        run_dataset = evaluate.run_dataset
        clock = time.perf_counter

        def timed_run_dataset(c, windows, *args, **kwargs):
            windows = list(windows)
            t0 = clock()
            report = run_dataset(c, windows, *args, **kwargs)
            t1 = clock()
            self.route_s.append(t1 - t0)
            self.routed += len(windows)
            if self.replay:
                names = [s.name for s in c.stations]
                decisions, times = decide_each(c, windows)
                self.decide_s.append(times)
                self.failures += single_matches_batch(
                    f"routing call {len(self.decide_s) - 1}",
                    routing_facts(report, names), names, windows, decisions)
                self.replay_s += clock() - t1
            return report

        with patched({(evaluate, "run_dataset"): timed_run_dataset}):
            yield self


def _read_outputs(out_dir):
    """(report digest per variant, bytes of every output file minus the
    report's timestamp line)."""
    outcome, blob = {}, []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            lines = f.read().splitlines(keepends=True)
        if name.startswith("report_"):
            lines = lines[1:]
            report = cli.read_report(os.path.join(out_dir, name))
            layers = {}
            for line in report["layers"].values():
                station, *fields = line.split()
                layers[station] = {k: int(v) for k, v in
                                   (f.split("=") for f in fields)}
            outcome[name[len("report_"):-len(".txt")]] = {
                "confusion": {k: int(report["pooled_confusion"][k])
                              for k in ("tp", "tn", "fp", "fn")},
                "stations": list(layers),
                "processed": [layers[s]["processed"] for s in layers],
                "decided": [layers[s]["decided_fall"] + layers[s]["decided_adl"]
                            for s in layers],
            }
        blob.append(name.encode() + b"\n" + b"".join(lines))
    return outcome, b"".join(blob)


class Pipeline:
    """`fallcascade run` on a generated config; one run is one operation."""

    def __init__(self, escalates, sizes):
        self.escalates, self.sizes = escalates, sizes
        # traced boundaries that have no work on this workload
        self.idle = set() if escalates else {"dataset.load_manifest"}

    def ops(self, state) -> int:
        return 1

    def setup(self, seed, work_dir):
        os.makedirs(work_dir, exist_ok=True)
        config = os.path.join(work_dir, "config.ini")
        if self.escalates:
            # the dataset stays at seed 0 and the workload seed is the
            # training seed: across dataset seeds 0-9 the gate decides 12-25%
            # of windows, which moves the routing work per window by up to 16%
            # and would set the spread between runs at different seeds
            data = dataset.synth_generate(dataset.SynthSpec(
                n_subjects=self.sizes.escalate_subjects, seed=0,
                **dict(KD_SPEC, falls_per_subject=self.sizes.per_class,
                       adls_per_subject=self.sizes.per_class)))
            manifest = dataset.write_dataset(data, os.path.join(work_dir, "data"))
            text = ESCALATE_CONFIG.format(manifest=manifest, epochs=self.sizes.epochs,
                                          variants=VARIANTS)
            argv = ["--seed", str(seed)]
            n_windows = len(data)
        else:
            # every key at its default except the variants and the training
            # seed; the default dataset (seed 0) is kept, because at other
            # dataset seeds the default gate escalates up to 40% of windows
            # and the workload would stop being a control
            sections = {"run": {"variants": VARIANTS}, "train": {"seed": str(seed)}}
            for section, key, value in self.sizes.default_overrides:
                sections.setdefault(section, {})[key] = value
            parser = configparser.ConfigParser()
            parser.read_dict(sections)
            text = io.StringIO()
            parser.write(text)
            text = text.getvalue()
            argv = []
            n_windows = None
        with open(config, "w") as f:
            f.write(text)
        return {"argv": ["run", "--config", config, *argv], "n_windows": n_windows}

    def run_pass(self, state, out_dir, traced=False) -> Pass:
        # each routing call's windows are routed again one at a time right
        # after it, so that the decisions are timed all through the run, as
        # the host's speed drifts; not in a traced pass, whose per-layer
        # numbers are the run's own
        probe = RoutingProbe(replay=not traced)
        with probe.installed(), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(state["argv"] + ["--out", out_dir])
            run_s = time.perf_counter() - t0 - probe.replay_s
        outcome, blob = _read_outputs(out_dir)
        failures = [] if rc == 0 else [f"fallcascade run exited {rc}"]
        if len(outcome) != len(VARIANTS.split(",")):
            failures.append(f"{len(outcome)} reports written, expected "
                            f"{len(VARIANTS.split(','))}")
        for token, o in outcome.items():
            total = sum(o["confusion"].values())
            if state["n_windows"] is not None and total != state["n_windows"]:
                failures.append(f"{token}: {total} windows, expected {state['n_windows']}")
            failures += conservation(token, o["processed"], o["decided"], total)
            failures += escalation_guard(token, o["stations"], o["processed"],
                                         o["decided"], self.escalates)
        return Pass(ops=1, run_s=run_s, outcome=outcome, blob=blob,
                    failures=failures + probe.failures, parts_s=np.array([run_s]),
                    routed=probe.routed, route_s=np.array(probe.route_s),
                    decide_s=np.concatenate(probe.decide_s))


class Route:
    """The deployed cascade serving a held-out draw, in chunks of `CHUNK`
    windows: each chunk as a batch through `run_dataset`, then one window at a
    time through `run_sample` by a single closed-loop client. Each routed
    window is one operation, and so is each batch."""

    CHUNK = 100

    idle = {"cli.main", "cli.parse_config", "cli.write_report",
            "dataset.load_manifest", "distill.takd_pipeline",
            "perfmodel.cascade_latency", "evaluate.loso_evaluate"}

    def __init__(self, sizes):
        self.sizes = sizes

    def chunks(self, windows):
        return [windows[i:i + self.CHUNK] for i in range(0, len(windows), self.CHUNK)]

    def ops(self, state) -> int:
        return len(self.chunks(state["windows"])) + len(state["windows"])

    def setup(self, seed, work_dir):
        def draw(subjects, draw_seed):
            data = dataset.synth_generate(dataset.SynthSpec(
                n_subjects=subjects, seed=draw_seed, **KD_SPEC))
            return [preprocess.extract_window(t, KD_WINDOW) for t in data.traces]

        train_windows = draw(self.sizes.route_train_subjects, 2 * seed)
        windows = draw(self.sizes.route_heldout_subjects, 2 * seed + 1)
        thresholds = edge_threshold.fit_thresholds(train_windows)
        X, y = preprocess.feature_matrix(train_windows)
        scaler = evaluate.fit_scaler(X, "minmax")
        X = scaler(X)
        cfg = nn.TrainConfig(seed=seed, **KD_TRAIN)
        teacher = nn.train(nn.TieredModel.init(
            nn.TierSpec(nn.TEACHER, (54, 32, 2)), cfg.seed), X, y, cfg).model
        student = distill.distill_train(
            teacher, nn.TierSpec(nn.STUDENT, (54, 8, 2)), X, y, KD,
            dataclasses.replace(cfg, seed=seed + 2)).model
        deployed = cascade.build_cascade(
            [student, teacher], thresholds,
            featurize=lambda w: scaler(preprocess.extract_features(w)))
        return {"cascade": deployed, "windows": windows}

    def run_pass(self, state, out_dir, traced=False) -> Pass:
        c, windows = state["cascade"], state["windows"]
        names = [s.name for s in c.stations]
        clock = time.perf_counter
        batch_s, decide_s, failures = [], [], []
        outcome = {"confusion": dict(tp=0, tn=0, fp=0, fn=0), "stations": names,
                   "processed": [0] * len(names), "decided": [0] * len(names)}
        t0 = clock()
        for k, chunk in enumerate(self.chunks(windows)):
            t = clock()
            report = cascade.run_dataset(c, chunk)
            batch_s.append(clock() - t)
            decisions, times = decide_each(c, chunk)
            decide_s.append(times)
            facts = routing_facts(report, names)
            failures += single_matches_batch(f"route chunk {k}", facts, names,
                                             chunk, decisions)
            for key in ("processed", "decided"):
                outcome[key] = [a + b for a, b in zip(outcome[key], facts[key])]
            for key, n in facts["confusion"].items():
                outcome["confusion"][key] += n
        run_s = clock() - t0
        failures += conservation("run_dataset", outcome["processed"],
                                 outcome["decided"], len(windows))
        failures += escalation_guard("run_dataset", names, outcome["processed"],
                                     outcome["decided"], True)
        decide_s = np.concatenate(decide_s)
        return Pass(ops=self.ops(state), run_s=run_s, outcome=outcome,
                    blob=repr(outcome).encode(), failures=failures,
                    parts_s=np.concatenate([batch_s, decide_s]),
                    routed=len(windows), route_s=np.array(batch_s),
                    decide_s=decide_s)


NAMES = ("escalate", "default", "route")


def make(name, sizes=FULL):
    if name == "route":
        return Route(sizes)
    return Pipeline(name == "escalate", sizes)
