import os
import re
import types
from pathlib import Path

import numpy as np
import pytest

from fallcascade import cascade, cli, distill, nn, perfmodel
from fallcascade import dataset as ds
from fallcascade import evaluate as ev
from fallcascade import preprocess as pp
from fallcascade.cascade import CascadeReport, ConfusionMatrix
from fallcascade.edge_threshold import EdgeThresholds


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

# a TA smaller than the student: (teacher, TA, student) params (1826, 230, 458)
MISORDERED_TIERS = TINY_CONFIG.replace("ta = 54,16,2", "ta = 54,4,2")


def write_config(tmp_path, text=TINY_CONFIG, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_key(text, section, key, value):
    """The config text with `key = value` added to `section`."""
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text + f"\n[{section}]\n{key} = {value}\n"


def readme_config_sample():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        return re.findall(r"```ini\n(.*?)```", f.read(), re.S)[0]


def validate_error(tmp_path, capsys, text):
    """The stderr of a `validate` that must fail on the config text."""
    assert cli.main(["validate", "--config", write_config(tmp_path, text)]) == 1
    return capsys.readouterr().err


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

    def test_topology_layer_count_must_match_every_variant(self, tmp_path, capsys,
                                                            write_topology):
        topo = tmp_path / "topo.txt"
        write_topology(perfmodel.uniform_topology(4), topo)
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

    LOAD = "a node sets parent, s, b, theta, rho, phi, and its load comes from the routed volume"

    @pytest.mark.parametrize("edit, message", [
        (("theta=1e9 rho=0.2", "theta=nan rho=0.2"), "{topo}: node m: theta must be > 0, got nan"),
        (("b=2.0", "b=-5"), "{topo}: node m: b must be >= 0, got -5.0"),
        (None, "layer 0 has no nodes"),
        (("parent=c s=0.5", "parent=c s"), "{topo}: node m: token 's' is not key=value"),
        (("rho=0.2", "rho=0.2 lambda=0"), "{topo}: node m: unknown key 'lambda'; " + LOAD),
        (("rho=0.2", "rho=0.2 beta=0"), "{topo}: node m: unknown key 'beta'; " + LOAD),
        (("rho=0.2", "rho=0.2 thetta=5"), "{topo}: node m: unknown key 'thetta'; " + LOAD),
        (("parent=c s=0.5", "parent=c s=0.5 s=0.7"), "{topo}: node m: key 's' is set twice"),
    ], ids=["nan_theta", "negative_b", "empty_layers", "token_without_equals", "lambda",
            "beta", "unknown_key", "repeated_key"])
    def test_bad_topology_value_names_the_node(self, tmp_path, capsys, edit, message):
        topo = tmp_path / "topo.txt"
        good = ("layer 0\nnode e parent=m s=0.5 b=1.0 theta=1e9 rho=0.1 phi=1e6\n"
                "layer 1\nnode m parent=c s=0.5 b=2.0 theta=1e9 rho=0.2 phi=1e6\n"
                "layer 2\nnode c parent=- s=0.5 b=1.0 theta=1e9 rho=0.1 phi=1e6\n")
        topo.write_text(good)
        cfg = with_key(TINY_CONFIG, "latency", "topology", topo)
        assert cli.main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        topo.write_text(good.replace(*edit) if edit else "layer 0\nlayer 1\nlayer 2\n")
        err = validate_error(tmp_path, capsys, cfg)
        assert err == f"config error: latency.topology: {message.format(topo=topo)}\n"

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

    @pytest.mark.parametrize("widths", ["54,0,2", "54", "54,8,3"])
    def test_bad_tier_names_the_key(self, tmp_path, capsys, widths):
        err = validate_error(tmp_path, capsys,
                             TINY_CONFIG.replace("student = 54,8,2", f"student = {widths}"))
        assert err.startswith("config error: tiers.student: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"n_subjects = 3\n[dataset]\nseed = 1\n",
                                         b"[train]\nepochs = 3\nepochs = 4\n",
                                         b"[train\nepochs = 3\n",
                                         b"[train]\nepochs = \xff\n"],
                             ids=["no_section_header", "key_set_twice", "unclosed_section",
                                  "not_utf8"])
    def test_malformed_file_is_a_config_error_line(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(content)
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

    def test_directory_is_a_config_error_line(self, tmp_path, capsys):
        # a directory exists but cannot be read as a file
        assert cli.main(["validate", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_tiers_triple_kd_cannot_train_name_the_section(self, tmp_path, capsys):
        err = validate_error(tmp_path, capsys, MISORDERED_TIERS.replace(
            "variants = nokd:dual", "variants = nokd:dual,triplekd:triple"))
        assert err == ("config error: tiers: specs must be capacity-ordered "
                       "teacher > TA > student, got (1826, 230, 458)\n")

    def test_tier_order_binds_only_triple_kd(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MISORDERED_TIERS.replace(
            "variants = nokd:dual",
            "variants = nokd:dual,dualkd:dual,nokd:triple,dualkd:triple"))
        assert cli.main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out == "config ok\n"

    def test_bad_variant_token(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "variants = nokd:dual", "variants = megakd:dual"))
        rc = cli.main(["validate", "--config", cfg])
        assert rc != 0
        assert "run.variants" in capsys.readouterr().err

    def test_repeated_variant_names_the_token(self, tmp_path, capsys):
        err = validate_error(tmp_path, capsys, TINY_CONFIG.replace(
            "variants = nokd:dual", "variants = nokd:dual, nokd:dual ,dualkd:dual"))
        assert err == "config error: run.variants: nokd:dual is listed twice\n"

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

    @pytest.mark.parametrize("text, error", [
        ("[train]\nepochs = x\nbogus = 1\n", "train.bogus: unknown key"),
        ("[cascade]\ntq_max = y\n[train]\nepochs = x\n",
         "cascade.tq_max: could not convert string to float: 'y'"),
    ], ids=["unknown_key", "two_bad_values"])
    def test_unknown_key_first_then_bad_values_in_file_order(self, tmp_path, capsys,
                                                              text, error):
        assert cli.main(["validate", "--config", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"

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


TH = EdgeThresholds(t_fall_xyz=3.0, t_fall_hori=2.0, t_adl_xyz=1.5, t_adl_hori=1.0)


def assert_one_check(tmp_path, capsys, sites, value, message, section, key):
    """Every library call site raises the rule's one ValueError, with its one
    message, on the bad value; validate's error names the key."""
    for site in sites:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            site(value)
    err = validate_error(tmp_path, capsys, with_key(TINY_CONFIG, section, key, value))
    assert err.startswith(f"config error: {section}.{key}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", [0.0, -1.0])
# the ids keep the names these cases have long had
@pytest.mark.parametrize("section, key, field", [
    ("cascade", "inference_temperature", "inference_temperature"),
    ("kd", "kd_temperature", "temperature")],
    ids=["cascade-inference_temperature-None", "kd-kd_temperature-kd"])
def test_temperature_rule_has_one_check(tmp_path, capsys, value, section, key, field):
    model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 2)))
    sites = {"temperature": [lambda t: nn.softmax_t([1.0, 0.0], t),
                             lambda t: distill._log_softmax(np.zeros((1, 2)), t),
                             lambda t: distill.KDConfig(temperature=t)],
             "inference_temperature": [
                 lambda t: ev.ExperimentConfig(inference_temperature=t),
                 lambda t: cascade.build_cascade([model], TH, inference_temperature=t)]}
    assert_one_check(tmp_path, capsys, sites[field], value, f"{field} must be > 0, got {value}",
                     section, key)


KEY_RULES = [
    ("train", "epochs", 0, "epochs must be > 0, got 0"),
    ("train", "batch_size", -1, "batch_size must be > 0, got -1"),
    ("train", "learning_rate", -0.5, "learning_rate must be >= 0, got -0.5"),
    ("train", "momentum", 1.0, "momentum must be >= 0 and < 1, got 1.0"),
    ("dataset", "n_subjects", 0, "n_subjects must be > 0, got 0"),
    ("dataset", "falls_per_subject", 0, "falls_per_subject must be > 0, got 0"),
    ("dataset", "adls_per_subject", -2, "adls_per_subject must be > 0, got -2"),
    ("dataset", "trace_duration_s", 0.0, "trace_duration_s must be > 0, got 0.0"),
    ("dataset", "noise_sd", -0.1, "noise_sd must be >= 0, got -0.1"),
    ("dataset", "sample_rate_hz", 0, "sample_rate_hz must be > 0, got 0"),
    ("train", "seed", -3, "seed must be >= 0, got -3"),
    ("dataset", "seed", -2, "seed must be >= 0, got -2"),
]

WINDOW_KD_RULES = [
    ("window", "ws_f_s", 0.0, "ws_f_s must be > 0, got 0.0"),
    ("window", "ws_b_s", -0.5, "ws_b_s must be > 0, got -0.5"),
    ("window", "vertical_axis", "w", "vertical_axis must be one of x, y, z, got 'w'"),
    ("kd", "lambda", 2.0, "lam must be in [0, 1], got 2.0"),
    ("kd", "kd_temperature", 0.0, "temperature must be > 0, got 0.0"),
    ("kd", "kd_direction", "up", "direction must be one of paper_eq8, standard, got 'up'"),
    ("kd", "triple_mode", "nested",
     "triple_mode must be one of sequential, composite_eq10, got 'nested'"),
    ("kd", "tri_combine", "max", "tri_combine must be one of additive, multiplicative, got 'max'"),
]


def assert_rule_names_key(tmp_path, capsys, section, key, value, message):
    """The dataclass the section builds raises the message on the bad value,
    and validate's error is the message named by the key, on one line."""
    build = {"train": nn.TrainConfig, "dataset": ds.SynthSpec, "window": pp.WindowSpec,
             "kd": distill.KDConfig}[section]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(**{cli.KD_FIELDS.get(key, key): value})
    err = validate_error(tmp_path, capsys, f"[{section}]\n{key} = {value}\n")
    assert err == f"config error: {section}.{key}: {message}\n"


@pytest.mark.parametrize("section, key, value, message", KEY_RULES,
                         ids=[f"{section}.{key}" for section, key, *_ in KEY_RULES])
def test_train_and_dataset_rules_name_their_key(tmp_path, capsys, section, key, value,
                                                message):
    assert_rule_names_key(tmp_path, capsys, section, key, value, message)


@pytest.mark.parametrize("section, key, value, message", WINDOW_KD_RULES,
                         ids=[f"{section}.{key}" for section, key, *_ in WINDOW_KD_RULES])
def test_window_and_kd_rules_name_their_key(tmp_path, capsys, section, key, value, message):
    assert_rule_names_key(tmp_path, capsys, section, key, value, message)


# every CHECKS table's owner: the arguments it is built from, and one bad
# value per checked field
CHECKED = {
    nn.TrainConfig: ({}, {"epochs": 0, "batch_size": -1, "learning_rate": -0.5,
                          "momentum": 1.0, "seed": -3}),
    ds.SynthSpec: ({}, {"n_subjects": 0, "falls_per_subject": 0, "adls_per_subject": -2,
                        "fall_peak_range": (7.0, 6.0), "adl_peak_range": (0.0, 1.0),
                        "trace_duration_s": 0.0, "noise_sd": -0.1, "sample_rate_hz": 0,
                        "seed": -2}),
    pp.WindowSpec: ({}, {"ws_f_s": 0.0, "ws_b_s": -0.5, "vertical_axis": "w"}),
    distill.KDConfig: ({}, {"lam": 2.0, "temperature": 0.0, "direction": "up",
                            "triple_mode": "nested", "tri_combine": "max"}),
    ev.ExperimentConfig: ({}, {"kd_variant": "megakd", "layers": "quad",
                               "normalization": "zcore", "inference_temperature": -1.0}),
    pp.Window: ({"samples": np.zeros((4, 3)), "label": pp.ADL},
                {"label": "fall", "vertical_axis": "w"}),
    ds.Trace: ({"subject_id": "S01", "trial_id": "T01", "label": ds.FALL,
                "sample_rate_hz": 50, "samples": np.zeros((4, 3))},
               {"label": "fall", "sample_rate_hz": 0}),
    cascade.Cascade: ({"models": [nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 2)))],
                       "thresholds": TH},
                      {"inference_temperature": -1.0}),
    perfmodel.NodeParams: ({"s": 0.5, "b": 1.0, "theta": 1e9, "rho": 0.1, "lam": 0.0,
                            "beta": 0.0, "phi": 1e6},
                           {"s": 1.5, "b": -5.0, "theta": float("nan"), "rho": -0.1,
                            "lam": -1.0, "beta": float("nan"), "phi": 0.0}),
}


def test_every_checks_table_has_cases():
    owners = {obj for module in (nn, ds, pp, distill, ev, cascade, perfmodel, cli)
              for obj in vars(module).values()
              if isinstance(obj, type) and "CHECKS" in vars(obj)}
    assert owners == set(CHECKED)


@pytest.mark.parametrize("owner", CHECKED, ids=lambda owner: owner.__name__)
def test_every_checks_rule_names_its_field(owner):
    base, bad = CHECKED[owner]
    # a rule with no case fails here
    assert set(bad) == set(owner.CHECKS)
    for name, value in bad.items():
        assert owner.CHECKS[name].__name__ != "<lambda>"
        with pytest.raises((ValueError, ds.DatasetError)) as e:
            owner(**{**base, name: value})
        assert str(e.value).startswith(f"{name} ")


MANIFEST_SYNTH_RULES = [rule for rule in KEY_RULES if rule[0] == "dataset"]


@pytest.mark.parametrize("section, key, value, message", MANIFEST_SYNTH_RULES,
                         ids=[f"{section}.{key}" for section, key, *_ in MANIFEST_SYNTH_RULES])
def test_synth_keys_are_checked_under_a_manifest(tmp_path, capsys, section, key, value,
                                                 message):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("")
    err = validate_error(tmp_path, capsys, f"[dataset]\nsource = manifest\n"
                                           f"manifest = {manifest}\n{key} = {value}\n")
    assert err == f"config error: {section}.{key}: {message}\n"


def test_seed_flag_under_a_manifest_names_the_seed_it_sets(tmp_path, capsys):
    # --seed sets the synth seed only where a synth dataset uses it
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("")
    cfg = write_config(tmp_path, f"[dataset]\nsource = manifest\nmanifest = {manifest}\n")
    assert cli.main(["validate", "--config", cfg, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "config error: train.seed: seed must be >= 0, got -1\n"


def test_negative_seed_fails_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_CONFIG)
    assert cli.main(["run", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: dataset.seed: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["fall", "adl"])
@pytest.mark.parametrize("key, value", [("peak_min", 7.0), ("peak_max", 0.5)])
def test_peak_range_names_its_two_keys(tmp_path, capsys, kind, key, value):
    lo, hi = getattr(ds.SynthSpec, f"{kind}_peak_range")
    bad = (value, hi) if key == "peak_min" else (lo, value)
    message = f"{kind}_peak_range must satisfy 0 < lo < hi, got {bad}"
    with pytest.raises(ds.InvalidSpec, match=f"^{re.escape(message)}$"):
        ds.SynthSpec(**{f"{kind}_peak_range": bad})
    err = validate_error(tmp_path, capsys, f"[dataset]\n{kind}_{key} = {value}\n")
    assert err == f"config error: dataset.{kind}_peak_min/{kind}_peak_max: {message}\n"


def test_axis_rule_has_one_check(tmp_path, capsys):
    sites = [lambda a: pp.channel_matrix(np.zeros((4, 3)), a),
             lambda a: pp.WindowSpec(vertical_axis=a),
             lambda a: pp.Window(np.zeros((4, 3)), "ADL", a)]
    assert_one_check(tmp_path, capsys, sites, "w", "vertical_axis must be one of x, y, z, got 'w'",
                     "window", "vertical_axis")


def test_kd_variant_rule_is_one_object(separable_xy):
    assert ev.ExperimentConfig.CHECKS["kd_variant"] is distill.check_kd_variant
    choices = "must be one of nokd, dualkd, triplekd, got 'megakd'"
    with pytest.raises(ValueError, match=f"^kd_variant {choices}$"):
        ev.ExperimentConfig(kd_variant="megakd")
    X, y = separable_xy
    specs = {tier: nn.TierSpec(tier, (X.shape[1], 2)) for tier in nn.TIERS}
    with pytest.raises(ValueError, match=f"^kd {choices}$"):
        distill.takd_pipeline(specs, X, y, distill.KDConfig(), nn.TrainConfig(epochs=1),
                              [("megakd", ())])


def test_f1_rule_is_one_object(monkeypatch):
    with pytest.raises(ValueError, match="^f1_mode must be one of standard, paper, got 'x'$"):
        ev.metrics(ConfusionMatrix(tp=1), "x")
    seen = []
    monkeypatch.setattr(ev, "check_f1_mode", lambda name, value: seen.append((name, value)))
    ev.metrics(ConfusionMatrix(tp=1), ev.F1_PAPER)
    assert seen == [("f1_mode", ev.F1_PAPER)]


def test_normalization_rule_has_one_check(tmp_path, capsys):
    sites = [lambda m: ev.fit_scaler(np.zeros((2, 2)), m),
             lambda m: ev.ExperimentConfig(normalization=m)]
    assert_one_check(tmp_path, capsys, sites, "zcore",
                     "normalization must be one of minmax, zscore, got 'zcore'",
                     "normalize", "mode")


# a routing report of a dual-layer cascade: the gate and two classifier stations
DUAL_REPORT = CascadeReport(station_names=["ed_gate", "mec1", "cc"], decided_fall=[2, 2, 1],
                            decided_adl=[1, 1, 1], window_len=50)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_horizon_rule_has_one_check(tmp_path, capsys, value):
    sites = [lambda h: perfmodel.cascade_latency(DUAL_REPORT, perfmodel.uniform_topology(3), h)]
    assert_one_check(tmp_path, capsys, sites, value, f"horizon_s must be > 0, got {value}",
                     "latency", "horizon_s")


def test_topology_rule_has_one_check(tmp_path, capsys, write_topology):
    message = "topology has 4 layers, cascade has 3 stations"
    with pytest.raises(ValueError, match=f"^{message}$"):
        perfmodel.cascade_latency(DUAL_REPORT, perfmodel.uniform_topology(4))
    topo = tmp_path / "topo.txt"
    write_topology(perfmodel.uniform_topology(4), topo)
    err = validate_error(tmp_path, capsys, with_key(TINY_CONFIG, "latency", "topology", topo))
    assert err == f"config error: latency.topology: variant nokd_dual: {message}\n"


def test_readme_config_sample_names_every_key():
    named, section = set(), None
    for line in readme_config_sample().splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif key := re.match(r"(?:# )?(\w+) = ", line):
            named.add((section, key[1]))
    assert named == {(section, key) for section, keys in cli.KEYS.items() for key in keys}


def test_empty_config_takes_the_dataclass_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("FALLCASCADE_OUT", raising=False)
    run_cfg = cli.parse_config(write_config(tmp_path, ""))
    assert run_cfg.synth == ds.SynthSpec() and run_cfg.manifest is None
    assert run_cfg.experiment == ev.ExperimentConfig()
    assert run_cfg.variants == [(ev.KD_NONE, ev.LAYERS_DUAL), (ev.KD_DUAL, ev.LAYERS_DUAL)]
    assert run_cfg.compare_normalization is False
    assert run_cfg.topology is None and run_cfg.horizon_s == 1.0
    assert run_cfg.out_dir == "out"


ESCALATE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "escalate.ini")


@pytest.fixture(scope="module")
def escalate_out(tmp_path_factory):
    """The output directory of one `run` of configs/escalate.ini at seed 0,
    which is also the seed its dataset and training take without --seed."""
    out = tmp_path_factory.mktemp("escalate") / "out"
    assert cli.main(["run", "--config", ESCALATE_CONFIG, "--seed", "0", "--out", str(out)]) == 0
    return out


def test_escalate_config_validates(capsys):
    assert cli.main(["validate", "--config", ESCALATE_CONFIG]) == 0
    assert capsys.readouterr().out == "config ok\n"
    run_cfg = cli.parse_config(ESCALATE_CONFIG)
    assert run_cfg.synth.n_subjects == 6 and run_cfg.synth.noise_sd == 0.5
    assert [t.layer_widths for t in (run_cfg.experiment.student, run_cfg.experiment.ta,
                                     run_cfg.experiment.teacher)] == [(54, 8, 2), (54, 16, 2),
                                                                      (54, 32, 2)]


def test_readme_escalate_deltas_match_a_run(escalate_out, capsys):
    # README quotes `compare` on the escalate config's nokd_dual and
    # dualkd_dual reports at seed 0
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        quoted = re.search(r"\(at seed 0: accuracy unchanged, `mec1_to_cc` (\+[\d.]+)%\)",
                           " ".join(f.read().split()))
    assert quoted is not None
    capsys.readouterr()
    assert cli.main(["compare", str(escalate_out / "report_nokd_dual.txt"),
                     str(escalate_out / "report_dualkd_dual.txt")]) == 0
    deltas = dict(line.split("=") for line in capsys.readouterr().out.splitlines()[1:])
    assert deltas["acc_imp"] == "+0.0000%"
    hop = float(deltas["latency_reduction mec1_to_cc"].rstrip("%"))
    assert f"{hop:+.1f}" == quoted[1]


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

    def test_out_below_a_file_is_an_error_line(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert cli.main(["synth", "--config", write_config(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_manifest_source_is_a_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("")
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: dataset.source: must be synth for the synth command\n")


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

    def test_schema_v1_key_order(self, tmp_path):
        # the keys follow the fields of ConfusionMatrix, Metrics and
        # STATION_COLUMNS; reordering one of them must not reorder schema v1
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", write_config(tmp_path), "--out", out]) == 0
        report = cli.read_report(os.path.join(out, "report_nokd_dual.txt"))
        counts, metrics = ["tp", "tn", "fp", "fn"], ["acc", "pre", "rec", "f1"]
        assert list(report) == ["_header", "pooled_confusion", "pooled_metrics",
                                "mean_metrics", "fold S01", "fold S02", "fold S03",
                                "layers", "latency"]
        assert list(report["pooled_confusion"]) == counts
        assert list(report["pooled_metrics"]) == list(report["mean_metrics"]) == metrics
        for subject in ("S01", "S02", "S03"):
            assert list(report[f"fold {subject}"]) == counts + ["acc"]
        volumes = ["processed", "decided_fall", "decided_adl", "escalated",
                   "processed_samples"]
        for line in report["layers"].values():
            assert [field.split("=")[0] for field in line.split()[1:]] == volumes
        with open(os.path.join(out, "metrics_nokd_dual.csv")) as f:
            assert f.readline() == "scope," + ",".join(metrics) + "\n"
        with open(os.path.join(out, "layer_volumes_nokd_dual.csv")) as f:
            assert f.readline() == "station," + ",".join(volumes) + "\n"

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

    def test_synth_traces_read_through_a_manifest_run_as_synthesised(self, tmp_path, capsys,
                                                                     escalate_out):
        # the synthesised side is the shared seed-0 run, the config's own seeds
        assert cli.parse_config(ESCALATE_CONFIG, seed_override=0) == cli.parse_config(
            ESCALATE_CONFIG)
        with open(ESCALATE_CONFIG) as f:
            text = f.read()
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", ESCALATE_CONFIG, "--out", str(data)]) == 0
        manifest = write_config(tmp_path, text.replace(
            "source = synth", f"source = manifest\nmanifest = {data / 'manifest.txt'}"))
        out_s, out_m = escalate_out, tmp_path / "manifest"
        assert cli.main(["run", "--config", manifest, "--out", str(out_m)]) == 0
        names = sorted(os.listdir(out_s))
        assert names == sorted(os.listdir(out_m)) and len(names) == 12

        def content(path):
            with open(path) as f:
                lines = f.readlines()
            if path.name.startswith("report_"):
                assert lines[0].startswith("# generated ") and lines[3].startswith("dataset=")
                del lines[3], lines[0]
            return lines

        for name in names:
            assert content(out_s / name) == content(out_m / name), name

    def test_tiers_triple_kd_cannot_train_stop_the_run_at_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MISORDERED_TIERS.replace(
            "variants = nokd:dual", "variants = triplekd:triple"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: tiers: specs must be ")
        assert not out.exists()

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
        assert err.startswith("error: fold holding out S01: teacher training loss is ")
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

    def test_mixed_sample_rate_manifest_is_an_error_line(self, tmp_path, capsys):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=2, falls_per_subject=1,
                                              adls_per_subject=1, seed=7))
        manifest = ds.write_dataset(data, str(tmp_path / "data"))
        path = tmp_path / "data" / "S02_A01.txt"
        path.write_text(path.read_text().replace("rate_hz=50\n", "rate_hz=100\n"))
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: traces S01/F01 and S02/A01 have sample rates 50 and 100 Hz; "
            "a dataset needs one rate\n")

    def test_repeated_manifest_entry_is_an_error_line(self, tmp_path, capsys):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=2, falls_per_subject=1,
                                              adls_per_subject=1, seed=7))
        manifest = Path(ds.write_dataset(data, str(tmp_path / "data")))
        manifest.write_text(manifest.read_text() + "S01_F01.txt\n")
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: trace S01/F01 is listed twice\n"

    def test_out_that_is_a_file_is_an_error_line_before_training(self, tmp_path, capsys,
                                                                 monkeypatch):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "loso_evaluate", lambda *a, **k: pytest.fail("trained"))
        assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_unreadable_manifest_is_an_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"S01_F01.txt\n\xff\n")
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["validate", "--config", cfg]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["no_rate", "missing", "not_utf8"])
    def test_bad_trace_file_is_an_error_line(self, tmp_path, capsys, bad):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=2, falls_per_subject=1,
                                              adls_per_subject=1, seed=7))
        manifest = ds.write_dataset(data, str(tmp_path / "data"))
        entry = "S01_F01.txt"
        path = tmp_path / "data" / entry
        if bad == "missing":
            path.unlink()
        elif bad == "no_rate":
            path.write_text(path.read_text().replace("rate_hz=50\n", ""))
        else:
            path.write_bytes(path.read_bytes().replace(b"label=", b"label=\xff"))
        cfg = write_config(tmp_path, TINY_CONFIG.replace(
            "source = synth", f"source = manifest\nmanifest = {manifest}"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest entry {entry}: ") and err.count("\n") == 1


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
        text = Path(report).read_text().replace("schema_version=1", "schema_version=9")
        bad.write_text(text)
        rc = cli.main(["compare", report, str(bad)])
        assert rc != 0
        assert "schema" in capsys.readouterr().err

    @staticmethod
    def _write(path, metrics, hop_ms, hop_names=("ed_gate_to_mec1", "mec1_to_cc")):
        """A report with the given pooled metrics and hop latencies."""
        report = CascadeReport(station_names=["ed_gate", "mec1", "cc"],
                               decided_fall=[2, 2, 1], decided_adl=[1, 1, 1],
                               window_len=50, cm=ConfusionMatrix(3, 2, 2, 1))
        agg = types.SimpleNamespace(pooled_metrics=metrics, mean_metrics=metrics,
                                    folds=[], pooled_report=report)
        latency = dict(zip(hop_names, hop_ms))
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
            + [f"latency_reduction {hop}="
               f"{perfmodel.percent_reduction(base[hop], new[hop]):+.4f}%" for hop in base])
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
        hop = "ed_gate_to_mec1"
        assert perfmodel.percent_reduction(base[hop], new[hop]) is None
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
