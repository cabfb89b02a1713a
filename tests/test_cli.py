import os
import re
import types

import numpy as np
import pytest

from fallcascade import cli, perfmodel
from fallcascade import dataset as ds
from fallcascade import evaluate as ev
from fallcascade.cascade import CascadeReport, ConfusionMatrix


TINY_CONFIG = """\
[dataset]
source = synth
n_subjects = 3
falls_per_subject = 3
adls_per_subject = 3
trace_duration_s = 2.0
sample_rate_hz = 50
seed = 7

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


# noisy, overlapping peak ranges and briefly trained tiers: windows reach
# every station
NOISY_CONFIG = """\
[dataset]
source = synth
n_subjects = 3
falls_per_subject = 5
adls_per_subject = 5
fall_peak_min = 1.5
fall_peak_max = 4.0
adl_peak_min = 0.8
adl_peak_max = 3.0
trace_duration_s = 2.0
noise_sd = 0.5
seed = 0

[window]
ws_f_s = 0.6
ws_b_s = 0.5

[tiers]
student = 54,8,2
ta = 54,16,2
teacher = 54,32,2

[train]
epochs = 20
batch_size = 8
learning_rate = 0.02

[run]
variants = nokd:dual
"""


def write_config(tmp_path, text=TINY_CONFIG, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_key(text, section, key, value):
    """The config text with `key = value` added to `section`."""
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text + f"\n[{section}]\n{key} = {value}\n"


def strip_timestamp(path):
    with open(path) as f:
        lines = f.readlines()
    assert lines[0].startswith("# generated ")
    return "".join(lines[1:])


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["validate", "--config", str(tmp_path / "nope.ini")])
        assert rc != 0
        assert "not found" in capsys.readouterr().err

    def test_missing_topology_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG +
                           "\n[latency]\ntopology = /nonexistent/topo.txt\n")
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        assert "latency.topology" in capsys.readouterr().err

    def test_topology_layer_count_must_match_every_variant(self, tmp_path, capsys):
        topo = tmp_path / "topo.txt"
        perfmodel.write_topology(perfmodel.uniform_topology(4), topo)
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "variants = nokd:dual", "variants = nokd:triple,nokd:dual")
            + f"\n[latency]\ntopology = {topo}\n")
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        err = capsys.readouterr().err
        assert "latency.topology" in err and "nokd_dual" in err

    def test_malformed_topology_names_field_and_key(self, tmp_path, capsys):
        topo = tmp_path / "topo.txt"
        topo.write_text("layer 0\nnode g parent=- s=0.5\n")
        cfg = write_config(tmp_path, TINY_CONFIG + f"\n[latency]\ntopology = {topo}\n")
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        err = capsys.readouterr().err
        assert "latency.topology" in err and "node g lacks 'b'" in err

    def test_unknown_vertical_axis_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "ws_b_s = 0.5", "ws_b_s = 0.5\nvertical_axis = w"))
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        assert "window.vertical_axis" in capsys.readouterr().err

    @pytest.mark.parametrize("key, line", [("student", "student = 10,8,2"),
                                           ("ta", "ta = 53,16,2"),
                                           ("teacher", "teacher = 55,32,2")])
    def test_tier_input_width_must_be_feature_count(self, tmp_path, capsys, key, line):
        default = {"student": "54,8,2", "ta": "54,16,2", "teacher": "54,32,2"}[key]
        cfg = write_config(tmp_path, TINY_CONFIG.replace(f"{key} = {default}", line))
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        assert f"tiers.{key}" in capsys.readouterr().err

    def test_bad_variant_token(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "variants = nokd:dual", "variants = megakd:dual"))
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        assert "run.variants" in capsys.readouterr().err

    def test_one_subject_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace("n_subjects = 3", "n_subjects = 1"))
        assert cli.main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: dataset.n_subjects: LOSO needs at least 2 subjects, got 1\n")

    @pytest.mark.parametrize("tq_max, tq_min",
                             [(0.2, 0.8), (0.3, 0.3), (0.8, -0.1), (1.1, 0.2)])
    def test_band_names_the_keys(self, tmp_path, capsys, tq_max, tq_min):
        text = with_key(with_key(TINY_CONFIG, "cascade", "tq_max", tq_max),
                        "cascade", "tq_min", tq_min)
        assert cli.main(["validate", "--config", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: cascade.tq_max/tq_min: need 0 <= tq_min < tq_max <= 1")

    @pytest.mark.parametrize("section, key", [("train", "learning_rat"),
                                              ("cascde", "tq_max"),
                                              ("DEFAULT", "seed")])
    def test_unknown_key_names_it(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, with_key(TINY_CONFIG, section, key, "2"))
        assert cli.main(["validate", "--config", cfg]) != 0
        assert capsys.readouterr().err == f"config error: {section}.{key}: unknown key\n"

    @pytest.mark.parametrize("section, key", [("cascade", "inference_temperature"),
                                              ("train", "learning_rate"),
                                              ("dataset", "noise_sd")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_key(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, with_key(TINY_CONFIG, section, key, value))
        assert cli.main(["validate", "--config", cfg]) != 0
        assert capsys.readouterr().err == (
            f"config error: {section}.{key}: must be finite, got '{value}'\n")

    def test_keys_read_only_by_some_settings_are_known(self, tmp_path, capsys):
        # run.out under --out, train.seed under --seed and dataset.manifest
        # under source = synth are overridden or unused, not unknown
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", "source = synth\nmanifest = nowhere.txt").replace(
            "batch_size = 16", "batch_size = 16\nseed = 3") + "out = elsewhere\n")
        argv = ["validate", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "config ok\n"

    def test_readme_config_sample_validates(self, tmp_path, capsys, monkeypatch):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as f:
            samples = re.findall(r"```ini\n(.*?)```", f.read(), re.S)
        assert len(samples) == 1
        cfg = write_config(tmp_path, samples[0])
        assert cli.main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out == "config ok\n"
        # the sample spells out every default: it parses as an empty config does
        monkeypatch.delenv("FALLCASCADE_OUT", raising=False)
        empty = write_config(tmp_path, "", name="empty.ini")
        assert cli.parse_config(cfg) == cli.parse_config(empty)


def test_escalate_config_validates(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "escalate.ini")
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == "config ok\n"
    run_cfg = cli.parse_config(path)
    assert run_cfg.synth.n_subjects == 6 and run_cfg.synth.noise_sd == 0.5
    assert [t.layer_widths for t in (run_cfg.experiment.student, run_cfg.experiment.ta,
                                     run_cfg.experiment.teacher)] == [(54, 8, 2), (54, 16, 2),
                                                                      (54, 32, 2)]


class TestSynth:
    def test_writes_expected_trace_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "data")
        assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
        traces = [f for f in os.listdir(out) if f.endswith(".txt")
                  and f != "manifest.txt"]
        assert len(traces) == 18  # 3 subjects x (3 falls + 3 adls)
        assert os.path.exists(os.path.join(out, "manifest.txt"))

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        cli.main(["synth", "--config", cfg, "--out", out_a])
        cli.main(["synth", "--config", cfg, "--out", out_b])
        for name in sorted(os.listdir(out_a)):
            with open(os.path.join(out_a, name)) as fa, \
                 open(os.path.join(out_b, name)) as fb:
                assert fa.read() == fb.read()

    def test_invalid_spec_fails_with_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "n_subjects = 3", "n_subjects = 0"))
        rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc != 0
        assert capsys.readouterr().err != ""


class TestRun:
    def test_tiny_run_produces_report_and_plot_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "report_nokd_dual.txt"))
        assert os.path.exists(os.path.join(out, "loss_curves_nokd_dual.csv"))
        assert os.path.exists(os.path.join(out, "layer_volumes_nokd_dual.csv"))
        assert os.path.exists(os.path.join(out, "metrics_nokd_dual.csv"))
        report = cli.read_report(os.path.join(out, "report_nokd_dual.txt"))
        assert report["_header"]["schema_version"] == cli.SCHEMA_VERSION
        assert set(report["pooled_metrics"]) == {"acc", "pre", "rec", "f1"}

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = str(tmp_path / "ra"), str(tmp_path / "rb")
        cli.main(["run", "--config", cfg, "--out", out_a])
        cli.main(["run", "--config", cfg, "--out", out_b])
        for name in sorted(os.listdir(out_a)):
            pa, pb = os.path.join(out_a, name), os.path.join(out_b, name)
            if name.startswith("report_"):
                assert strip_timestamp(pa) == strip_timestamp(pb)
            else:
                with open(pa) as fa, open(pb) as fb:
                    assert fa.read() == fb.read()

    def test_idle_classifier_stations_warn_on_stderr(self, tmp_path, capsys):
        # the default peak ranges: the gate decides every window
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: nokd_dual: classifier station(s) mec1, cc processed 0 "
            "windows in every fold\n")

    def test_no_warning_when_every_station_sees_windows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOISY_CONFIG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_normalization_compare_emits_table(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG +
                           "\n[normalize]\ncompare = true\n")
        out = str(tmp_path / "cmp")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        comp = os.path.join(out, "normalization_comparison.txt")
        with open(comp) as f:
            lines = f.read().splitlines()
        assert lines[0] == "mode,variant,acc,pre,rec,f1"
        modes = {l.split(",")[0] for l in lines[1:]}
        assert modes == {"minmax", "zscore"}


    def test_diverging_fold_is_an_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[dataset]\nn_subjects = 3\n"
                                     "[train]\nlearning_rate = 1e300\nepochs = 3\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fold holding out S01: Teacher training loss is ")
        assert err.count("\n") == 1

    def test_fold_without_a_class_is_an_error_line(self, tmp_path, capsys):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=3, falls_per_subject=3,
                                              adls_per_subject=3, seed=7))
        only = data.subjects[0]
        traces = [t for t in data.traces if t.label != ds.FALL or t.subject_id == only]
        manifest = ds.write_dataset(ds.Dataset("falls-in-one", traces),
                                    str(tmp_path / "data"))
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: fold holding out {only}: ")
        assert err.count("\n") == 1

    def test_one_subject_manifest_is_an_error_line(self, tmp_path, capsys):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=2, falls_per_subject=3,
                                              adls_per_subject=3, seed=7))
        traces = [t for t in data.traces if t.subject_id == data.subjects[0]]
        manifest = ds.write_dataset(ds.Dataset("one-subject", traces),
                                    str(tmp_path / "data"))
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: LOSO needs at least 2 subjects, got 1\n"


class TestCompare:
    def _make_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["run", "--config", cfg, "--out", out])
        return os.path.join(out, "report_nokd_dual.txt")

    def test_report_against_itself_is_zero(self, tmp_path, capsys):
        report = self._make_report(tmp_path)
        assert cli.main(["compare", report, report]) == 0
        out = capsys.readouterr().out
        for name in ("acc", "pre", "rec", "f1"):
            assert (f"{name}_imp=+0.0000%" in out or f"{name}_imp=NA" in out)

    def test_schema_mismatch(self, tmp_path, capsys):
        report = self._make_report(tmp_path)
        bad = tmp_path / "bad.txt"
        text = open(report).read().replace("schema_version=1", "schema_version=9")
        bad.write_text(text)
        rc = cli.main(["compare", report, str(bad)])
        assert rc != 0
        assert "schema" in capsys.readouterr().err

    @staticmethod
    def _write(path, metrics, hop_ms, hop_names=("ed_gate_to_mec1", "mec1_to_cc")):
        """A report with the given pooled metrics and hop latencies."""
        report = CascadeReport(station_names=["ed_gate", "mec1", "cc"],
                               processed=[8, 5, 2], decided_fall=[2, 2, 1],
                               decided_adl=[1, 1, 1], escalated=[5, 2, 0],
                               total=8, window_len=50)
        agg = types.SimpleNamespace(pooled_cm=ConfusionMatrix(3, 2, 2, 1),
                                    pooled_metrics=metrics, mean_metrics=metrics,
                                    folds=[], pooled_report=report)
        latency = perfmodel.LatencyReport(list(hop_names), hop_ms)
        cli.write_report(str(path), "x", "d", "minmax", agg, latency)
        return latency

    def test_printed_numbers_are_the_checked_formulas(self, tmp_path, capsys):
        base_m = ev.Metrics(acc=0.6875, pre=0.7142857142857143, rec=0.625,
                            f1=0.6666666666666666)
        new_m = ev.Metrics(acc=0.8125, pre=0.9, rec=0.5625, f1=0.6923076923076923)
        base = self._write(tmp_path / "a.txt", base_m, [0.12345, 0.0375])
        new = self._write(tmp_path / "b.txt", new_m, [0.0999, 0.05])
        assert cli.main(["compare", str(tmp_path / "a.txt"),
                         str(tmp_path / "b.txt")]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == (
            [f"{m}_imp={ev.percent_change(getattr(new_m, m), getattr(base_m, m)):+.4f}%"
             for m in ("acc", "pre", "rec", "f1")]
            + [f"latency_reduction {hop}={perfmodel.percent_reduction(a, b):+.4f}%"
               for hop, a, b in zip(base.hop_names, base.hop_ms, new.hop_ms)])
        assert len(set(lines)) == len(lines)

    def test_zero_baselines_print_na(self, tmp_path, capsys):
        base_m = ev.Metrics(acc=0.0, pre=None, rec=0.5, f1=None)
        new_m = ev.Metrics(acc=0.5, pre=0.5, rec=None, f1=0.5)
        base = self._write(tmp_path / "a.txt", base_m, [0.0, 0.04])
        new = self._write(tmp_path / "b.txt", new_m, [0.01, 0.03])
        assert cli.main(["compare", str(tmp_path / "a.txt"),
                         str(tmp_path / "b.txt")]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [ev.percent_change(getattr(new_m, m), getattr(base_m, m))
                for m in ("acc", "pre", "rec", "f1")] == [None] * 4
        assert perfmodel.percent_reduction(base.hop_ms[0], new.hop_ms[0]) is None
        assert lines == ["acc_imp=NA", "pre_imp=NA", "rec_imp=NA", "f1_imp=NA",
                         "latency_reduction ed_gate_to_mec1=NA",
                         f"latency_reduction mec1_to_cc="
                         f"{perfmodel.percent_reduction(0.04, 0.03):+.4f}%"]

    def test_only_shared_hops_are_compared(self, tmp_path, capsys):
        m = ev.Metrics(acc=0.5, pre=0.5, rec=0.5, f1=0.5)
        self._write(tmp_path / "dual.txt", m, [0.2, 0.1])
        self._write(tmp_path / "triple.txt", m, [0.1, 0.1, 0.05],
                    ["ed_gate_to_mec1", "mec1_to_mec2", "mec2_to_cc"])
        assert cli.main(["compare", str(tmp_path / "dual.txt"),
                         str(tmp_path / "triple.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[5:] == [
            "latency_reduction ed_gate_to_mec1=+50.0000%"]
