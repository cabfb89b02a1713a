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

from . import __version__, dataset as ds, evaluate, nn, perfmodel
from .distill import KDConfig
from .edge_threshold import MissingClass
from .evaluate import ExperimentConfig, loso_evaluate
from .nn import TierSpec, TrainConfig
from .preprocess import N_FEATURES, PLANE_AXES, WindowSpec

SCHEMA_VERSION = "1"

VARIANT_KD = {"nokd": evaluate.KD_NONE, "dualkd": evaluate.KD_DUAL,
              "triplekd": evaluate.KD_TRIPLE}
VARIANT_LAYERS = {"dual": evaluate.LAYERS_DUAL, "triple": evaluate.LAYERS_TRIPLE}


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


class _ConfigFile(configparser.ConfigParser):
    """A config file that records the keys `_get` reads from it, so that a
    key nothing reads is reported instead of ignored. [DEFAULT] is a section
    like any other, so its keys are not copied into every section."""

    def __init__(self):
        super().__init__(default_section="")
        self.read_keys = set()


def _get(cfg, section, key, default, cast=str):
    cfg.read_keys.add((section, key))
    try:
        raw = cfg.get(section, key, fallback=None)
        if raw is None:
            return default
        value = cast(raw)
    except ValueError as e:
        raise ConfigError(f"{section}.{key}: {e}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def _widths(raw: str):
    return tuple(int(w) for w in raw.split(","))


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_config(path, seed_override=None, out_override=None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = _ConfigFile()
    cfg.read(path)

    # every key is read whatever the source, so that none is reported unknown
    source = _get(cfg, "dataset", "source", "synth")
    manifest = _get(cfg, "dataset", "manifest", None)
    synth = ds.SynthSpec(
        n_subjects=_get(cfg, "dataset", "n_subjects", 6, int),
        falls_per_subject=_get(cfg, "dataset", "falls_per_subject", 4, int),
        adls_per_subject=_get(cfg, "dataset", "adls_per_subject", 4, int),
        fall_peak_range=(_get(cfg, "dataset", "fall_peak_min", 3.0, float),
                         _get(cfg, "dataset", "fall_peak_max", 6.0, float)),
        adl_peak_range=(_get(cfg, "dataset", "adl_peak_min", 0.8, float),
                        _get(cfg, "dataset", "adl_peak_max", 1.8, float)),
        trace_duration_s=_get(cfg, "dataset", "trace_duration_s", 3.0, float),
        noise_sd=_get(cfg, "dataset", "noise_sd", 0.05, float),
        sample_rate_hz=_get(cfg, "dataset", "sample_rate_hz", 50, int),
        seed=_get(cfg, "dataset", "seed", 0, int),
    )
    if source == "manifest":
        synth = None
        if manifest is None:
            raise ConfigError("dataset.manifest: required when source=manifest")
        if not os.path.exists(manifest):
            raise ConfigError(f"dataset.manifest: file not found: {manifest}")
    elif source == "synth":
        manifest = None
        try:
            synth.validate()
        except ds.InvalidSpec as e:
            raise ConfigError(f"dataset: {e}")
    else:
        raise ConfigError(f"dataset.source: must be synth or manifest, got {source!r}")
    if seed_override is not None and synth is not None:
        synth = dataclasses.replace(synth, seed=seed_override)

    try:
        window = WindowSpec(ws_f_s=_get(cfg, "window", "ws_f_s", 1.0, float),
                            ws_b_s=_get(cfg, "window", "ws_b_s", 0.8, float))
    except ValueError as e:
        raise ConfigError(f"window: {e}")
    vertical_axis = _get(cfg, "window", "vertical_axis", "x")
    if vertical_axis not in PLANE_AXES:
        raise ConfigError(f"window.vertical_axis: must be x, y or z, got {vertical_axis!r}")

    normalization = _get(cfg, "normalize", "mode", "minmax")
    if normalization not in ("minmax", "zscore"):
        raise ConfigError(f"normalize.mode: must be minmax or zscore, got {normalization!r}")
    compare_norm = _get(cfg, "normalize", "compare", False, _bool)

    try:
        student = TierSpec(nn.STUDENT, _get(cfg, "tiers", "student",
                                            nn.DEFAULT_TIER_WIDTHS[nn.STUDENT], _widths))
        ta = TierSpec(nn.TA, _get(cfg, "tiers", "ta",
                                  nn.DEFAULT_TIER_WIDTHS[nn.TA], _widths))
        teacher = TierSpec(nn.TEACHER, _get(cfg, "tiers", "teacher",
                                            nn.DEFAULT_TIER_WIDTHS[nn.TEACHER], _widths))
    except ValueError as e:
        raise ConfigError(f"tiers: {e}")
    for key, spec in (("student", student), ("ta", ta), ("teacher", teacher)):
        if spec.layer_widths[0] != N_FEATURES:
            raise ConfigError(f"tiers.{key}: input width must be {N_FEATURES}, "
                              f"one per feature, got {spec.layer_widths[0]}")

    train_seed = _get(cfg, "train", "seed", 0, int)
    try:
        train = TrainConfig(
            epochs=_get(cfg, "train", "epochs", 200, int),
            batch_size=_get(cfg, "train", "batch_size", 64, int),
            learning_rate=_get(cfg, "train", "learning_rate", 0.001, float),
            momentum=_get(cfg, "train", "momentum", 0.9, float),
            seed=train_seed if seed_override is None else seed_override,
        )
    except ValueError as e:
        raise ConfigError(f"train: {e}")

    try:
        kd = KDConfig(
            lam=_get(cfg, "kd", "lambda", 0.5, float),
            temperature=_get(cfg, "kd", "kd_temperature", 20.0, float),
            direction=_get(cfg, "kd", "kd_direction", "paper_eq8"),
            triple_mode=_get(cfg, "kd", "triple_mode", "sequential"),
            tri_combine=_get(cfg, "kd", "tri_combine", "additive"),
        )
    except (ValueError, nn.NonPositiveTemperature) as e:
        raise ConfigError(f"kd: {e}")

    tq_max = _get(cfg, "cascade", "tq_max", 0.8, float)
    tq_min = _get(cfg, "cascade", "tq_min", 0.2, float)
    if not (0.0 <= tq_min < tq_max <= 1.0):
        raise ConfigError(f"cascade.tq_max/tq_min: need 0 <= tq_min < tq_max <= 1")
    inference_temperature = _get(cfg, "cascade", "inference_temperature", 1.0, float)
    if inference_temperature <= 0:
        raise ConfigError("cascade.inference_temperature: must be > 0")

    raw_variants = _get(cfg, "run", "variants", "nokd:dual,dualkd:dual")
    variants = []
    for token in [t.strip() for t in raw_variants.split(",") if t.strip()]:
        try:
            kd_name, layer_name = token.split(":")
            variants.append((VARIANT_KD[kd_name], VARIANT_LAYERS[layer_name]))
        except (ValueError, KeyError):
            raise ConfigError(
                f"run.variants: bad token {token!r}; expected kd:layers with "
                f"kd in {sorted(VARIANT_KD)} and layers in {sorted(VARIANT_LAYERS)}")
    if not variants:
        raise ConfigError("run.variants: at least one variant is required")

    topology = None
    topology_path = _get(cfg, "latency", "topology", None)
    if topology_path is not None:
        if not os.path.exists(topology_path):
            raise ConfigError(f"latency.topology: file not found: {topology_path}")
        try:
            topology = perfmodel.load_topology(topology_path)
        except ValueError as e:
            raise ConfigError(f"latency.topology: {e}")
        for kd_variant, layers in variants:
            n_stations = 1 + len(evaluate.DEPLOYED_TIERS[layers])
            if len(topology.layers) != n_stations:
                raise ConfigError(
                    f"latency.topology: {len(topology.layers)} layers, but variant "
                    f"{_variant_token(kd_variant, layers)} has {n_stations} stations")
    horizon_s = _get(cfg, "latency", "horizon_s", 1.0, float)
    if horizon_s <= 0:
        raise ConfigError("latency.horizon_s: must be > 0")

    config_out = _get(cfg, "run", "out", None)
    out_dir = out_override or config_out or os.environ.get("FALLCASCADE_OUT", "out")
    unknown = [f"{section}.{key}" for section in cfg.sections()
               for key in cfg.options(section) if (section, key) not in cfg.read_keys]
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")

    experiment = ExperimentConfig(
        window=window, normalization=normalization,
        student=student, ta=ta, teacher=teacher,
        train=train, kd=kd,
        kd_variant=evaluate.KD_DUAL, layers=evaluate.LAYERS_DUAL,
        tq_max=tq_max, tq_min=tq_min,
        inference_temperature=inference_temperature,
        vertical_axis=vertical_axis,
    )
    return RunConfig(synth=synth, manifest=manifest, experiment=experiment,
                     variants=variants, compare_normalization=compare_norm,
                     topology=topology, horizon_s=horizon_s,
                     out_dir=out_dir)


def _load_dataset(run_cfg: RunConfig) -> ds.Dataset:
    if run_cfg.manifest is not None:
        return ds.load_manifest(run_cfg.manifest)
    return ds.synth_generate(run_cfg.synth)


def _f(v) -> str:
    return "NA" if v is None else repr(float(v))


def _variant_token(kd_variant, layers) -> str:
    inv_kd = {v: k for k, v in VARIANT_KD.items()}
    inv_layers = {v: k for k, v in VARIANT_LAYERS.items()}
    return f"{inv_kd[kd_variant]}_{inv_layers[layers]}"


def write_report(path, variant_token, dataset_name, normalization,
                 agg, latency) -> None:
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines.append(f"schema_version={SCHEMA_VERSION}")
    lines.append(f"variant={variant_token}")
    lines.append(f"dataset={dataset_name}")
    lines.append(f"normalization={normalization}")
    cm = agg.pooled_cm
    lines.append("[pooled_confusion]")
    lines.append(f"tp={cm.tp}")
    lines.append(f"tn={cm.tn}")
    lines.append(f"fp={cm.fp}")
    lines.append(f"fn={cm.fn}")
    lines.append("[pooled_metrics]")
    for name in ("acc", "pre", "rec", "f1"):
        lines.append(f"{name}={_f(getattr(agg.pooled_metrics, name))}")
    lines.append("[mean_metrics]")
    for name in ("acc", "pre", "rec", "f1"):
        lines.append(f"{name}={_f(getattr(agg.mean_metrics, name))}")
    for fold in agg.folds:
        lines.append(f"[fold {fold.subject}]")
        lines.append(f"tp={fold.cm.tp}")
        lines.append(f"tn={fold.cm.tn}")
        lines.append(f"fp={fold.cm.fp}")
        lines.append(f"fn={fold.cm.fn}")
        lines.append(f"acc={_f(fold.metrics.acc)}")
    lines.append("[layers]")
    r = agg.pooled_report
    for i, name in enumerate(r.station_names):
        lines.append(f"{name} processed={r.processed[i]} "
                     f"decided_fall={r.decided_fall[i]} "
                     f"decided_adl={r.decided_adl[i]} "
                     f"escalated={r.escalated[i]} "
                     f"processed_samples={r.processed_samples[i]}")
    if latency is not None:
        lines.append("[latency]")
        for name, ms in zip(latency.hop_names, latency.hop_ms):
            lines.append(f"{name}={repr(ms)}")
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
    curve_path = os.path.join(out_dir, f"loss_curves_{token}.csv")
    names = sorted(agg.loss_curves)
    with open(curve_path, "w") as f:
        f.write("epoch," + ",".join(names) + "\n")
        n_epochs = len(next(iter(agg.loss_curves.values())))
        for e in range(n_epochs):
            row = [str(e + 1)] + [repr(agg.loss_curves[n][e]) for n in names]
            f.write(",".join(row) + "\n")
    vol_path = os.path.join(out_dir, f"layer_volumes_{token}.csv")
    r = agg.pooled_report
    with open(vol_path, "w") as f:
        f.write("station,processed,decided_fall,decided_adl,escalated,processed_samples\n")
        for i, name in enumerate(r.station_names):
            f.write(f"{name},{r.processed[i]},{r.decided_fall[i]},"
                    f"{r.decided_adl[i]},{r.escalated[i]},{r.processed_samples[i]}\n")
    met_path = os.path.join(out_dir, f"metrics_{token}.csv")
    with open(met_path, "w") as f:
        f.write("scope,acc,pre,rec,f1\n")
        for scope, m in (("pooled", agg.pooled_metrics), ("mean", agg.mean_metrics)):
            f.write(f"{scope},{_f(m.acc)},{_f(m.pre)},{_f(m.rec)},{_f(m.f1)}\n")


def cmd_validate(args) -> int:
    parse_config(args.config, seed_override=args.seed, out_override=args.out)
    print("config ok")
    return 0


def cmd_synth(args) -> int:
    run_cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    if run_cfg.synth is None:
        print("config error: dataset.source must be synth for the synth command",
              file=sys.stderr)
        return 1
    data = ds.synth_generate(run_cfg.synth)
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    manifest = ds.write_dataset(data, run_cfg.out_dir)
    n_fall = sum(1 for t in data.traces if t.label == ds.FALL)
    print(f"wrote {len(data)} traces ({n_fall} falls, {len(data) - n_fall} ADLs) "
          f"for {len(data.subjects)} subjects")
    print(f"manifest: {manifest}")
    return 0


def cmd_run(args) -> int:
    run_cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    data = _load_dataset(run_cfg)
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    modes = (["minmax", "zscore"] if run_cfg.compare_normalization
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
            comparison_rows.append((mode, token, m))
            print(f"{token}: acc={_f(m.acc)} pre={_f(m.pre)} "
                  f"rec={_f(m.rec)} f1={_f(m.f1)} -> {path}")
    if run_cfg.compare_normalization:
        comp_path = os.path.join(run_cfg.out_dir, "normalization_comparison.txt")
        with open(comp_path, "w") as f:
            f.write("mode,variant,acc,pre,rec,f1\n")
            for mode, token, m in comparison_rows:
                f.write(f"{mode},{token},{_f(m.acc)},{_f(m.pre)},"
                        f"{_f(m.rec)},{_f(m.f1)}\n")
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
    names = ("acc", "pre", "rec", "f1")
    for name in names:
        ra = a["pooled_metrics"][name]
        rb = b["pooled_metrics"][name]
        if "NA" in (ra, rb) or float(ra) == 0.0:
            print(f"{name}_imp=NA")
            continue
        print(f"{name}_imp={evaluate.percent_change(float(rb), float(ra)):+.4f}%")
    hops_a = a.get("latency", {})
    hops_b = b.get("latency", {})
    for hop in hops_a:
        if hop in hops_b:
            la, lb = float(hops_a[hop]), float(hops_b[hop])
            if la == 0:
                print(f"latency_reduction {hop}=NA")
            else:
                print(f"latency_reduction {hop}="
                      f"{perfmodel.percent_reduction(la, lb):+.4f}%")
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
    except (SchemaMismatch, MissingClass, nn.NonFiniteLoss) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
