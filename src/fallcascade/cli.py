"""Command-line entry point: synth / run / compare / validate.

Configuration is an INI-style key-value file with sections; every key has
a default, so a minimal config only names what it changes. Reports and
plot data are delimited text; the only non-deterministic output line is
the leading timestamp comment.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__, cascade, dataset as ds, evaluate, nn, perfmodel
from .distill import KD_TRIPLE, KDConfig, check_capacity
from .edge_threshold import MissingClass
from .evaluate import ExperimentConfig, loso_evaluate
from .nn import TierSpec, TrainConfig
from .preprocess import N_FEATURES, WindowSpec

SCHEMA_VERSION = "1"

# the report's metric keys and CSV columns, in Metrics field order
METRIC_NAMES = [f.name for f in dataclasses.fields(evaluate.Metrics)]


class ConfigError(Exception):
    pass


class SchemaMismatch(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
    synth: ds.SynthSpec | None
    manifest: str | None
    experiment: ExperimentConfig
    variants: list
    compare_normalization: bool
    topology: perfmodel.Topology | None
    horizon_s: float
    out_dir: str


def _widths(raw: str):
    return tuple(int(w) for w in raw.split(","))


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# The config keys: section -> key -> the type its value is read as. A key
# the file leaves out takes the default of the dataclass field it sets.
KEYS = {
    "dataset": {"source": str, "manifest": str, "n_subjects": int,
                "falls_per_subject": int, "adls_per_subject": int,
                "fall_peak_min": float, "fall_peak_max": float,
                "adl_peak_min": float, "adl_peak_max": float,
                "trace_duration_s": float, "noise_sd": float,
                "sample_rate_hz": int, "seed": int},
    "window": {"ws_f_s": float, "ws_b_s": float, "vertical_axis": str},
    "normalize": {"mode": str, "compare": _bool},
    "tiers": dict.fromkeys(nn.TIERS, _widths),
    "train": {"epochs": int, "batch_size": int, "learning_rate": float,
              "momentum": float, "seed": int},
    "kd": {"lambda": float, "kd_temperature": float, "kd_direction": str,
           "triple_mode": str, "tri_combine": str},
    "cascade": {"tq_max": float, "tq_min": float, "inference_temperature": float},
    "run": {"variants": str, "out": str},
    "latency": {"topology": str, "horizon_s": float},
}

# the [kd] keys named otherwise than the KDConfig fields they set
KD_FIELDS = {"lambda": "lam", "kd_temperature": "temperature",
             "kd_direction": "direction"}


def _named(key, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError raised as a ConfigError that
    names the config key."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def _built(section, cls, values, keys=None):
    """cls(**values), after each value passes the check cls.CHECKS holds for
    its field, so that an error names the key: `<section>.<field>`, or the
    full key name `keys` gives a field set otherwise. An error of cls as a
    whole is named `section`."""
    keys = keys or {}
    for name, value in values.items():
        if name in cls.CHECKS:
            _named(keys.get(name, f"{section}.{name}"), cls.CHECKS[name], name, value)
    return _named(section, cls, **values)


def _read(path) -> dict:
    """The keys the file sets, cast by KEYS, as {section: {key: value}} over
    every section of KEYS. An unknown key is reported before any bad value."""
    # [DEFAULT] is a section like any other, not copied into every section
    cfg = configparser.ConfigParser(default_section="")
    try:
        with open(path) as f:
            cfg.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeError, configparser.Error) as e:
        # configparser's messages span several lines; the error is one line
        raise ConfigError(f"cannot read config file {path}: {' '.join(str(e).split())}")
    for section in cfg.sections():
        for key in cfg.options(section):
            if key not in KEYS.get(section, ()):
                raise ConfigError(f"{section}.{key}: unknown key")
    values = {section: {} for section in KEYS}
    for section in cfg.sections():
        for key, raw in cfg.items(section):
            value = _named(f"{section}.{key}", KEYS[section][key], raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
            values[section][key] = value
    return values


def parse_config(path, seed_override=None, out_override=None) -> RunConfig:
    cfg = _read(path)

    dataset = cfg["dataset"]
    source = dataset.pop("source", "synth")
    manifest = dataset.pop("manifest", None)
    if source == "manifest":
        if manifest is None:
            raise ConfigError("dataset.manifest: required when source=manifest")
        if not os.path.isfile(manifest):
            raise ConfigError(f"dataset.manifest: file not found: {manifest}")
    elif source != "synth":
        raise ConfigError(f"dataset.source: must be synth or manifest, got {source!r}")
    # the synth keys are checked under either source, and used under synth
    peak_keys = {}
    for kind in ("fall", "adl"):
        lo, hi = getattr(ds.SynthSpec, f"{kind}_peak_range")
        dataset[f"{kind}_peak_range"] = (dataset.pop(f"{kind}_peak_min", lo),
                                         dataset.pop(f"{kind}_peak_max", hi))
        peak_keys[f"{kind}_peak_range"] = f"dataset.{kind}_peak_min/{kind}_peak_max"
    if seed_override is not None and source == "synth":
        dataset["seed"] = seed_override
    synth = _built("dataset", ds.SynthSpec, dataset, peak_keys)
    if source == "manifest":
        synth = None
    else:
        manifest = None
        _named("dataset.n_subjects", ds.check_subjects, synth.n_subjects)

    window = _built("window", WindowSpec, cfg["window"])
    compare_norm = cfg["normalize"].get("compare", False)

    tiers = {}
    for key, widths in cfg["tiers"].items():
        tiers[key] = _named(f"tiers.{key}", TierSpec, key, widths)
        if widths[0] != N_FEATURES:
            raise ConfigError(f"tiers.{key}: input width must be {N_FEATURES}, "
                              f"one per feature, got {widths[0]}")

    if seed_override is not None:
        cfg["train"]["seed"] = seed_override
    train = _built("train", TrainConfig, cfg["train"])
    kd = _built("kd", KDConfig, {KD_FIELDS.get(key, key): v for key, v in cfg["kd"].items()},
                {field: f"kd.{key}" for key, field in KD_FIELDS.items()})
    # the band is the one rule of the config as a whole, and spans two keys
    experiment = _built(
        "cascade.tq_max/tq_min", ExperimentConfig,
        {"window": window, "train": train, "kd": kd, **tiers,
         "normalization": cfg["normalize"].get("mode", ExperimentConfig.normalization),
         **cfg["cascade"]},
        {"normalization": "normalize.mode",
         "inference_temperature": "cascade.inference_temperature"})

    raw_variants = cfg["run"].get("variants", "nokd:dual,dualkd:dual")
    variants = []
    for token in [t.strip() for t in raw_variants.split(",") if t.strip()]:
        kd_name, _, layer_name = token.partition(":")
        for name, value in (("kd_variant", kd_name), ("layers", layer_name)):
            _named("run.variants", ExperimentConfig.CHECKS[name], name, value)
        if (kd_name, layer_name) in variants:
            raise ConfigError(f"run.variants: {token} is listed twice")
        variants.append((kd_name, layer_name))
    if not variants:
        raise ConfigError("run.variants: at least one variant is required")

    topology = None
    topology_path = cfg["latency"].get("topology")
    if topology_path is not None:
        if not os.path.isfile(topology_path):
            raise ConfigError(f"latency.topology: file not found: {topology_path}")
        topology = _named("latency.topology", perfmodel.load_topology, topology_path)
        for kd_variant, layers in variants:
            _named(f"latency.topology: variant {_variant_token(kd_variant, layers)}",
                   perfmodel.check_topology, topology, 1 + len(evaluate.DEPLOYED_TIERS[layers]))
    horizon_s = cfg["latency"].get("horizon_s", perfmodel.HORIZON_S)
    _named("latency.horizon_s", nn.check_positive, "horizon_s", horizon_s)

    out_dir = out_override or cfg["run"].get("out") or os.environ.get("FALLCASCADE_OUT", "out")
    if any(kd_variant == KD_TRIPLE for kd_variant, _ in variants):
        _named("tiers", check_capacity, experiment.teacher, experiment.ta, experiment.student)
    return RunConfig(synth=synth, manifest=manifest, experiment=experiment,
                     variants=variants, compare_normalization=compare_norm,
                     topology=topology, horizon_s=horizon_s, out_dir=out_dir)


def _f(v) -> str:
    return "NA" if v is None else repr(float(v))


def _value(raw: str) -> float | None:
    """A report value read back: the inverse of _f."""
    return None if raw == "NA" else float(raw)


def _percent(delta) -> str:
    return "NA" if delta is None else f"{delta:+.4f}%"


def _variant_token(kd_variant, layers) -> str:
    return f"{kd_variant}_{layers}"


def _fields(obj, fmt=str) -> list:
    """(name, fmt(value)) of each field of the dataclass `obj`, in field order."""
    return [(f.name, fmt(getattr(obj, f.name))) for f in dataclasses.fields(obj)]


def _key_values(pairs) -> list:
    return [f"{key}={value}" for key, value in pairs]


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as f:
        f.writelines(",".join(map(str, row)) + "\n" for row in [header, *rows])


def write_report(path, variant_token, dataset_name, normalization,
                 agg, latency) -> None:
    sections = [("pooled_confusion", _fields(agg.pooled_report.cm)),
                ("pooled_metrics", _fields(agg.pooled_metrics, _f)),
                ("mean_metrics", _fields(agg.mean_metrics, _f))]
    sections += [(f"fold {fold.subject}", _fields(fold.report.cm)
                  + [("acc", _f(evaluate.metrics(fold.report.cm).acc))])
                 for fold in agg.folds]
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines += _key_values([("schema_version", SCHEMA_VERSION), ("variant", variant_token),
                          ("dataset", dataset_name), ("normalization", normalization)])
    for title, pairs in sections:
        lines += [f"[{title}]", *_key_values(pairs)]
    lines.append("[layers]")
    for name, *counts in agg.pooled_report.station_rows():
        lines.append(" ".join([name, *_key_values(zip(cascade.STATION_COLUMNS, counts))]))
    lines += ["[latency]", *_key_values((hop, repr(ms)) for hop, ms in latency.items())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_report(path) -> dict:
    """Parse a report file back into {section: {key: value-string}}."""
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    out = {"_header": {}}
    section = "_header"
    for line in lines:
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            out.setdefault(section, {})
        elif "=" in line and " " not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            out[section][key] = value
        else:
            out[section][line.split()[0]] = line
    return out


def _write_plot_data(out_dir, token, agg) -> None:
    names = sorted(agg.loss_curves)
    epochs = zip(*(agg.loss_curves[name] for name in names))
    _write_csv(os.path.join(out_dir, f"loss_curves_{token}.csv"), ["epoch", *names],
               [(e, *losses) for e, losses in enumerate(epochs, start=1)])
    _write_csv(os.path.join(out_dir, f"layer_volumes_{token}.csv"),
               ["station", *cascade.STATION_COLUMNS], agg.pooled_report.station_rows())
    _write_csv(os.path.join(out_dir, f"metrics_{token}.csv"), ["scope", *METRIC_NAMES],
               [(scope, *map(_f, dataclasses.astuple(m)))
                for scope, m in (("pooled", agg.pooled_metrics), ("mean", agg.mean_metrics))])


def cmd_validate(args) -> int:
    parse_config(args.config, seed_override=args.seed, out_override=args.out)
    print("config ok")
    return 0


def cmd_synth(args) -> int:
    run_cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    if run_cfg.synth is None:
        raise ConfigError("dataset.source: must be synth for the synth command")
    data = ds.synth_generate(run_cfg.synth)
    manifest = ds.write_dataset(data, run_cfg.out_dir)
    n_fall = sum(1 for t in data.traces if t.label == ds.FALL)
    print(f"wrote {len(data)} traces ({n_fall} falls, {len(data) - n_fall} ADLs) "
          f"for {len(data.subjects)} subjects")
    print(f"manifest: {manifest}")
    return 0


def cmd_run(args) -> int:
    run_cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    # an unusable output directory fails before any data is made or trained on
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    data = (ds.synth_generate(run_cfg.synth) if run_cfg.manifest is None
            else ds.load_manifest(run_cfg.manifest))
    modes = (evaluate.NORMALIZATIONS if run_cfg.compare_normalization
             else [run_cfg.experiment.normalization])
    comparison_rows = []
    for mode in modes:
        experiment = dataclasses.replace(run_cfg.experiment, normalization=mode)
        aggs = loso_evaluate(data, experiment, variants=run_cfg.variants)
        for (kd_variant, layers), agg in zip(run_cfg.variants, aggs):
            token = _variant_token(kd_variant, layers)
            if len(modes) > 1:
                token = f"{token}_{mode}"
            r = agg.pooled_report
            topology = run_cfg.topology or perfmodel.uniform_topology(len(r.station_names))
            latency = perfmodel.cascade_latency(r, topology, run_cfg.horizon_s)
            idle = [name for name, n in zip(r.station_names[1:], r.processed[1:]) if n == 0]
            if idle:
                print(f"warning: {token}: classifier station(s) {', '.join(idle)} "
                      f"processed 0 windows in every fold", file=sys.stderr)
            path = os.path.join(run_cfg.out_dir, f"report_{token}.txt")
            write_report(path, token, data.name, mode, agg, latency)
            _write_plot_data(run_cfg.out_dir, token, agg)
            m = agg.pooled_metrics
            comparison_rows.append((mode, token, *map(_f, dataclasses.astuple(m))))
            print(f"{token}: {' '.join(_key_values(_fields(m, _f)))} -> {path}")
    if run_cfg.compare_normalization:
        comp_path = os.path.join(run_cfg.out_dir, "normalization_comparison.txt")
        _write_csv(comp_path, ["mode", "variant", *METRIC_NAMES], comparison_rows)
        print(f"normalization comparison: {comp_path}")
    return 0


def cmd_compare(args) -> int:
    a = read_report(args.report_a)
    b = read_report(args.report_b)
    va = a["_header"].get("schema_version")
    vb = b["_header"].get("schema_version")
    if va != vb or va != SCHEMA_VERSION:
        raise SchemaMismatch(f"schema versions differ or unsupported: {va}, {vb}")
    print(f"comparing {args.report_b} against baseline {args.report_a}")
    for name in METRIC_NAMES:
        delta = evaluate.percent_change(_value(b["pooled_metrics"][name]),
                                        _value(a["pooled_metrics"][name]))
        print(f"{name}_imp={_percent(delta)}")
    hops_a = a.get("latency", {})
    hops_b = b.get("latency", {})
    for hop in hops_a:
        if hop in hops_b:
            delta = perfmodel.percent_reduction(_value(hops_a[hop]), _value(hops_b[hop]))
            print(f"latency_reduction {hop}={_percent(delta)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fallcascade",
        description="Edge-to-cloud fall-detection cascade experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("synth", cmd_synth), ("run", cmd_run),
                     ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("compare")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (SchemaMismatch, MissingClass, nn.NonFiniteLoss, ds.DatasetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
