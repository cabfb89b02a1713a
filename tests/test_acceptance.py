"""End-to-end acceptance checks.

Each test here covers one release criterion and is intentionally
self-contained; `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.
"""
import math
import os
import statistics

import numpy as np
import pytest

from fallcascade import cascade as cs
from fallcascade import cli, distill, evaluate as ev, nn, perfmodel as pm
from fallcascade.dataset import ADL, FALL, SynthSpec, synth_generate
from fallcascade.edge_threshold import (EdgeThresholds, classify_tc, fit_thresholds,
                                        window_peaks)
from fallcascade.preprocess import Window, WindowSpec, extract_window
from gradcheck import max_rel_error, one_row


def test_criterion_1_formula_goldens():
    assert pm.flops_fc(3, 2) == 10
    assert pm.flops_conv(1, 100, 3, 3, 8) == 44800
    cm = ev.ConfusionMatrix(tp=50, tn=40, fp=5, fn=5)
    m = ev.metrics(cm)
    assert abs(m.acc - 0.9) <= 1e-12
    assert abs(m.pre - 0.909091) <= 1e-6
    assert abs(m.rec - 0.909091) <= 1e-6
    assert abs(m.f1 - 0.909091) <= 1e-6
    assert abs(ev.metrics(cm, f1_mode=ev.F1_PAPER).f1 - 0.454545) <= 1e-6
    node = pm.NodeParams(s=0.5, b=2.0, theta=4.0, rho=0.1, phi=2.0)
    assert abs(pm.node_latency(node, lam=10.0, beta=1.0) - 3.5) <= 1e-9


def test_criterion_2_gradient_suite():
    specs = [
        ("ce", lambda rng: nn.CELoss()),
        ("dual", lambda rng: distill.DualLoss(
            rng.normal(scale=2.0, size=(5, 2)),
            distill.KDConfig(lam=0.5, temperature=20.0))),
        ("tri_additive", lambda rng: distill.TriLoss(
            rng.normal(scale=2.0, size=(5, 2)), rng.normal(scale=2.0, size=(5, 2)),
            distill.KDConfig(lam=0.5, temperature=5.0,
                             tri_combine=distill.ADDITIVE))),
        ("tri_multiplicative", lambda rng: distill.TriLoss(
            rng.normal(scale=2.0, size=(5, 2)), rng.normal(scale=2.0, size=(5, 2)),
            distill.KDConfig(lam=0.5, temperature=5.0,
                             tri_combine=distill.MULTIPLICATIVE))),
    ]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (4, 6, 2)), seed=seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5)
        for name, make in specs:
            err = max_rel_error(model, X, y, make(rng))
            assert err < 1e-4, f"{name} seed {seed}: rel err {err}"


def test_criterion_3_kl_properties():
    # the KL that training runs: DualLoss's one-row value at lam = 1,
    # T^2 * KL + 0 * CE, divided by T^2, for each pair as a one-row fold
    rng = np.random.default_rng(0)
    pairs = rng.normal(scale=4.0, size=(1000, 2, 2))
    for direction in (distill.PAPER_EQ8, distill.STANDARD_KD):
        for T in (1.0, 5.0, 20.0):
            cfg = distill.KDConfig(lam=1.0, temperature=T, direction=direction)
            loss = distill.DualLoss(pairs[:, :1], cfg)  # each pair's teacher row
            assert np.all(np.abs(one_row(loss, pairs[:, 0], 0) / (T * T)) <= 1e-9)
            assert np.all(one_row(loss, pairs[:, 1], 0) / (T * T) >= -1e-9)
    uniform = np.array([0.0, 0.0])
    skewed = np.array([math.log(0.9), math.log(0.1)])
    for direction, value in ((distill.PAPER_EQ8, 0.510826), (distill.STANDARD_KD, 0.368064)):
        cfg = distill.KDConfig(lam=1.0, temperature=1.0, direction=direction)
        assert abs(one_row(distill.DualLoss([skewed], cfg), uniform, 0) - value) <= 1e-5


def _synthetic_windows(n, seed):
    """n windows: half gate-decidable extremes, half in the uncertain band."""
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n):
        samples = rng.normal(scale=0.05, size=(20, 3))
        kind = i % 4
        if kind == 0:
            peak, label = rng.uniform(3.5, 6.0), FALL
        elif kind == 1:
            peak, label = rng.uniform(0.2, 0.6), ADL
        else:
            peak, label = rng.uniform(1.2, 2.8), FALL if kind == 2 else ADL
        direction = rng.normal(size=3)
        samples[10] = peak * direction / np.linalg.norm(direction)
        windows.append(Window(samples, label))
    return windows


def _band_cascade(thresholds, tq_max, tq_min):
    models = [nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 8, 2)), seed=1),
              nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (54, 16, 2)), seed=2)]
    return cs.build_cascade(models, thresholds, tq_max=tq_max, tq_min=tq_min)


def test_criterion_4_cascade_conservation_and_monotonicity():
    windows = _synthetic_windows(2000, seed=3)
    # thresholds fit on a same-distribution training draw
    thresholds = fit_thresholds(_synthetic_windows(400, seed=4))
    for tq_max, tq_min in ((0.6, 0.4), (0.9, 0.1)):
        cascade = _band_cascade(thresholds, tq_max, tq_min)
        report = cs.run_dataset(cascade, windows)
        # oracle: each window routed alone, counted where it enters and exits
        processed, decided = [0, 0, 0], [0, 0, 0]
        cm = dict(tp=0, tn=0, fp=0, fn=0)
        for window in windows:
            d = cs.run_sample(cascade, window)
            for i in range(d.decided_at + 1):
                processed[i] += 1
            decided[d.decided_at] += 1
            fall = d.final == FALL
            cm[("t" if fall == (window.label == FALL) else "f") + ("p" if fall else "n")] += 1
        assert processed[0] == len(windows) == 2000
        assert report.processed == processed
        assert report.decided == decided
        assert report.cm == cs.ConfusionMatrix(**cm)
        assert report.processed_samples == [20 * n for n in processed]
    narrow = cs.run_dataset(_band_cascade(thresholds, 0.6, 0.4), windows)
    wide = cs.run_dataset(_band_cascade(thresholds, 0.9, 0.1), windows)
    for n, w in zip(narrow.processed[1:], wide.processed[1:]):
        assert w >= n


def test_criterion_5_threshold_gate_soundness():
    for seed in range(5):
        data = synth_generate(SynthSpec(
            n_subjects=4, falls_per_subject=6, adls_per_subject=6,
            fall_peak_range=(1.8, 4.5), adl_peak_range=(0.8, 2.5),
            trace_duration_s=2.0, seed=seed))
        windows = [extract_window(t, WindowSpec(0.6, 0.5)) for t in data.traces]
        thresholds = fit_thresholds(windows)
        for window in windows:
            v, w = window_peaks(window)
            verdict = classify_tc(v, w, thresholds)
            if verdict is not None:
                assert verdict == window.label


# the horizontal plane's (ax, ay, az) columns about each vertical axis
HORIZONTAL_PLANE = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_criterion_5_threshold_gate_soundness_every_axis(axis):
    a, b = HORIZONTAL_PLANE[axis]
    for seed in range(5):
        data = synth_generate(SynthSpec(
            n_subjects=4, falls_per_subject=6, adls_per_subject=6,
            fall_peak_range=(1.8, 4.5), adl_peak_range=(0.8, 2.5),
            trace_duration_s=2.0, seed=seed))
        windows = [extract_window(t, WindowSpec(0.6, 0.5, axis)) for t in data.traces]
        thresholds = fit_thresholds(windows)
        # oracle: the ADL maxima and fall minima of the (spatial, horizontal)
        # peaks, computed here from the samples
        peaks = {FALL: [], ADL: []}
        for window in windows:
            s = window.samples
            peaks[window.label].append((np.sqrt((s * s).sum(axis=1)).max(),
                                        np.sqrt(s[:, a] ** 2 + s[:, b] ** 2).max()))
        assert thresholds == EdgeThresholds(*np.max(peaks[ADL], axis=0),
                                            *np.min(peaks[FALL], axis=0))
        for window in windows:
            verdict = classify_tc(*window_peaks(window), thresholds)
            if verdict is not None:
                assert verdict == window.label


# criterion 6 experiment scale: kept small enough to stay well under the
# ten-minute budget while leaving a genuine teacher/student capacity gap
KD_SEEDS = 10
# wide peak overlap plus heavy sensor noise keeps a large fraction of
# windows in the gate's uncertain band, so the classifier tiers matter
KD_SPEC = dict(n_subjects=6, falls_per_subject=20, adls_per_subject=20,
               fall_peak_range=(1.5, 4.0), adl_peak_range=(0.8, 3.0),
               trace_duration_s=2.0, noise_sd=0.5, sample_rate_hz=50)
KD_TRAIN = dict(epochs=30, batch_size=32, learning_rate=0.01, momentum=0.9)


def _kd_config(seed, kd_variant):
    return ev.ExperimentConfig(
        window=WindowSpec(0.6, 0.5),
        student=nn.TierSpec(nn.STUDENT, (54, 8, 2)),
        ta=nn.TierSpec(nn.TA, (54, 16, 2)),
        teacher=nn.TierSpec(nn.TEACHER, (54, 32, 2)),
        train=nn.TrainConfig(seed=seed, **KD_TRAIN),
        kd=distill.KDConfig(lam=0.7, temperature=20.0),
        kd_variant=kd_variant, layers=ev.LAYERS_DUAL)


def test_criterion_6_kd_efficacy():
    kd_accs, ce_accs, kd_wins = [], [], 0
    for seed in range(KD_SEEDS):
        data = synth_generate(SynthSpec(seed=seed, **KD_SPEC))
        kd, ce = ev.loso_evaluate(data, _kd_config(seed, ev.KD_DUAL), variants=[
            (ev.KD_DUAL, ev.LAYERS_DUAL), (ev.KD_NONE, ev.LAYERS_DUAL)])
        kd_accs.append(kd.pooled_metrics.acc)
        ce_accs.append(ce.pooled_metrics.acc)
        if kd.pooled_report.processed[-1] <= ce.pooled_report.processed[-1]:
            kd_wins += 1
    assert statistics.median(kd_accs) >= statistics.median(ce_accs), \
        f"median acc KD {statistics.median(kd_accs)} < CE {statistics.median(ce_accs)}"
    assert kd_wins >= 7, f"KD escalated less in only {kd_wins}/10 seeds"


RUN_CONFIG = """\
[dataset]
source = synth
n_subjects = 3
falls_per_subject = 3
adls_per_subject = 3
trace_duration_s = 2.0
seed = 5

[window]
ws_f_s = 0.6
ws_b_s = 0.5

[tiers]
student = 54,8,2
ta = 54,16,2
teacher = 54,32,2

[train]
epochs = 10
batch_size = 16

[run]
variants = nokd:dual
"""


def test_criterion_7_run_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(RUN_CONFIG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", str(cfg), "--out", out_a]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", out_b]) == 0
    assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))
    for name in sorted(os.listdir(out_a)):
        with open(os.path.join(out_a, name)) as fa, \
             open(os.path.join(out_b, name)) as fb:
            la, lb = fa.readlines(), fb.readlines()
        if name.startswith("report_"):
            assert la[0].startswith("# generated ")
            la, lb = la[1:], lb[1:]
        assert la == lb, f"{name} differs between identical runs"


def test_criterion_8_normalization_comparison(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(RUN_CONFIG + "\n[normalize]\ncompare = true\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "normalization_comparison.txt")) as f:
        lines = f.read().splitlines()
    assert lines[0] == "mode,variant,acc,pre,rec,f1"
    rows = [l.split(",") for l in lines[1:]]
    assert {r[0] for r in rows} == {"minmax", "zscore"}
    for row in rows:
        assert len(row) == 6
        for cell in row[2:]:
            assert cell == "NA" or 0.0 <= float(cell) <= 1.0


def _volume_report(top):
    # 100 windows enter the gate, 50 enter mec1 and `top` enter cc
    return cs.CascadeReport(
        station_names=["ed_gate", "mec1", "cc"],
        decided_fall=[50, 50 - top, top], decided_adl=[0, 0, 0], window_len=100)


def test_criterion_9_latency_volume_ratio():
    # compute terms forced below 1% of the hop total
    topo = pm.uniform_topology(3, s=0.5, b=1e-9, theta=1e9, phi=50.0)
    full = pm.cascade_latency(_volume_report(20), topo)
    half = pm.cascade_latency(_volume_report(10), topo)
    ratio = half["mec1_to_cc"] / full["mec1_to_cc"]
    assert abs(ratio - 0.5) <= 0.005
