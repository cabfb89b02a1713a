import os

import pytest

from fallcascade import cli, perfmodel


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
