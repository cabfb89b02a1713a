"""Accelerometer trial ingestion, synthetic data generation, and LOSO splits.

Trace files are plain text: ``key=value`` header lines (subject, trial,
label, rate_hz), a ``---`` separator, then one ``ax,ay,az`` row per sample
in units of g. A dataset manifest lists one trace-file path per line.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .nn import check_fields, check_non_empty, check_non_negative, check_positive
from .preprocess import ADL, FALL, NoSamples, Window, norm_xyz


class DatasetError(Exception):
    pass


class MalformedHeader(DatasetError):
    pass


class NonNumericSample(DatasetError):
    pass


class EmptyTrace(DatasetError):
    pass


class InvalidSpec(DatasetError, ValueError):
    pass


class TooFewSubjects(DatasetError, ValueError):
    pass


@dataclass(frozen=True)
class Trace:
    """One trial of triaxial accelerometer samples with metadata."""

    subject_id: str
    trial_id: str
    label: str
    sample_rate_hz: int
    samples: np.ndarray  # shape (n, 3), unit g

    # each checked field's one rule, a check(name, value); the label's and
    # the samples' are the window's
    CHECKS = {"subject_id": check_non_empty, "trial_id": check_non_empty,
              "label": Window.CHECKS["label"], "sample_rate_hz": check_positive,
              "samples": Window.CHECKS["samples"]}

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        try:
            check_fields(self)
        except NoSamples as e:
            raise EmptyTrace(f"trace {self.subject_id}/{self.trial_id} has no samples") from e
        except ValueError as e:
            raise DatasetError(str(e)) from e

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.subject_id == other.subject_id
            and self.trial_id == other.trial_id
            and self.label == other.label
            and self.sample_rate_hz == other.sample_rate_hz
            and self.samples.shape == other.samples.shape
            and bool(np.all(self.samples == other.samples))
        )


@dataclass(frozen=True)
class Dataset:
    name: str
    traces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        # a report's sample volumes take one window length for every trace,
        # and each trace counts once in its subject's fold
        first = self.traces[0] if self.traces else None
        seen = set()
        for t in self.traces:
            if (t.subject_id, t.trial_id) in seen:
                raise DatasetError(f"trace {t.subject_id}/{t.trial_id} is listed twice")
            seen.add((t.subject_id, t.trial_id))
            if t.sample_rate_hz != first.sample_rate_hz:
                raise DatasetError(
                    f"traces {first.subject_id}/{first.trial_id} and {t.subject_id}/"
                    f"{t.trial_id} have sample rates {first.sample_rate_hz} and "
                    f"{t.sample_rate_hz} Hz; a dataset needs one rate")

    @property
    def subjects(self) -> tuple:
        return tuple(sorted({t.subject_id for t in self.traces}))

    def __len__(self) -> int:
        return len(self.traces)


def check_peak_range(name: str, peak_range) -> None:
    """Raise ValueError, naming the field, unless the range is 0 < lo < hi."""
    lo, hi = peak_range
    if not 0 < lo < hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got ({lo}, {hi})")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic desk-scale dataset generator.

    Overlapping peak ranges are allowed on purpose: they create the
    "uncertain" mass that exercises the escalation path.
    """

    n_subjects: int = 6
    falls_per_subject: int = 4
    adls_per_subject: int = 4
    fall_peak_range: tuple = (3.0, 6.0)
    adl_peak_range: tuple = (0.8, 1.8)
    trace_duration_s: float = 3.0
    noise_sd: float = 0.05
    sample_rate_hz: int = 50
    seed: int = 0

    # each checked field's one rule, a check(name, value)
    CHECKS = {"n_subjects": check_positive, "falls_per_subject": check_positive,
              "adls_per_subject": check_positive, "fall_peak_range": check_peak_range,
              "adl_peak_range": check_peak_range, "trace_duration_s": check_positive,
              "noise_sd": check_non_negative, "sample_rate_hz": check_positive,
              "seed": check_non_negative}

    def __post_init__(self):
        try:
            check_fields(self)
        except ValueError as e:
            raise InvalidSpec(str(e)) from e


def _fmt(v: float) -> str:
    # repr of a Python float is the shortest exact round-trip form
    return repr(float(v))


# the keys a trace header sets, each exactly once
HEADER_KEYS = ("subject", "trial", "label", "rate_hz")


def write_trace(trace: Trace, path) -> None:
    """Write the trace as its HEADER_KEYS lines, `---` and one `ax,ay,az`
    row per sample."""
    values = (trace.subject_id, trace.trial_id, trace.label, trace.sample_rate_hz)
    lines = [f"{key}={value}" for key, value in zip(HEADER_KEYS, values)] + ["---"]
    for ax, ay, az in trace.samples:
        lines.append(f"{_fmt(ax)},{_fmt(ay)},{_fmt(az)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_trace(path) -> Trace:
    """The trace of a file that write_trace writes. Its header sets each of
    HEADER_KEYS exactly once and no other key."""
    with open(path) as f:
        raw = f.read().splitlines()
    header = {}
    body_start = None
    for i, line in enumerate(raw):
        if line.strip() == "---":
            body_start = i + 1
            break
        if "=" not in line:
            raise MalformedHeader(f"{path}: bad header line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in HEADER_KEYS:
            raise MalformedHeader(f"{path}: unknown header key {key!r}; a header sets "
                                  f"{', '.join(HEADER_KEYS)}")
        if key in header:
            raise MalformedHeader(f"{path}: header key {key!r} is set twice")
        header[key] = value.strip()
    if body_start is None:
        raise MalformedHeader(f"{path}: missing '---' separator")
    missing = set(HEADER_KEYS) - header.keys()
    if missing:
        raise MalformedHeader(f"{path}: missing header keys {sorted(missing)}")
    try:
        rate = int(header["rate_hz"])
    except ValueError:
        raise MalformedHeader(f"{path}: rate_hz is not an integer")
    rows = []
    for line in raw[body_start:]:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise NonNumericSample(f"{path}: expected 3 values, got {line!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise NonNumericSample(f"{path}: non-numeric sample row {line!r}")
    if not rows:
        raise EmptyTrace(f"{path}: no sample rows")
    try:
        return Trace(
            subject_id=header["subject"],
            trial_id=header["trial"],
            label=header["label"],
            sample_rate_hz=rate,
            samples=np.array(rows, dtype=np.float64),
        )
    except DatasetError as e:
        raise type(e)(f"{path}: {e}") from e


def write_dataset(dataset: Dataset, out_dir) -> str:
    """Write one trace file per trial plus a manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for trace in dataset.traces:
        fname = f"{trace.subject_id}_{trace.trial_id}.txt"
        write_trace(trace, os.path.join(out_dir, fname))
        paths.append(fname)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as f:
        f.write("\n".join(paths) + "\n")
    return manifest


def load_manifest(manifest_path) -> Dataset:
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path) as f:
            entries = [line.strip() for line in f if line.strip()]
    except (OSError, UnicodeError) as e:
        raise DatasetError(f"manifest {manifest_path}: {e}") from e
    traces = []
    for entry in entries:
        path = entry if os.path.isabs(entry) else os.path.join(base, entry)
        try:
            traces.append(load_trace(path))
        except (OSError, UnicodeError, DatasetError) as e:
            raise DatasetError(f"manifest entry {entry}: {e}") from e
    return Dataset(name="dataset", traces=tuple(traces))


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _rescale_to_peak(sig: np.ndarray, peak: float) -> np.ndarray:
    m = norm_xyz(sig).max()
    if m < 1e-12:
        sig = sig.copy()
        sig[0, 0] = 1.0
        m = norm_xyz(sig).max()
    return sig * (peak / m)


def _fall_samples(rng, n: int, rate: int, peak: float, noise_sd: float) -> np.ndarray:
    t = np.arange(n) / rate
    sig = np.zeros((n, 3))
    sig[:, 0] = 1.0  # resting gravity on the device x axis
    center = int(n * rng.uniform(0.35, 0.65))
    # free-fall dip before impact
    dip_len = max(2, int(0.25 * rate))
    dip_start = max(0, center - dip_len)
    sig[dip_start:center, 0] *= np.linspace(1.0, 0.15, center - dip_start)
    # half-sine impact spike along a random direction
    spike_len = max(3, int(0.1 * rate))
    spike_end = min(n, center + spike_len)
    profile = np.sin(np.linspace(0.0, np.pi, spike_end - center))
    direction = _unit_vector(rng)
    sig[center:spike_end] += 3.0 * np.outer(profile, direction)
    # post-impact settling wobble
    wobble = 0.15 * np.sin(2 * np.pi * 4.0 * t)[:, None] * rng.normal(size=(1, 3))
    mask = (np.arange(n) >= spike_end).astype(float)[:, None]
    sig += wobble * mask
    sig += rng.normal(0.0, noise_sd, size=(n, 3))
    return _rescale_to_peak(sig, peak)


def _adl_samples(rng, n: int, rate: int, peak: float, noise_sd: float) -> np.ndarray:
    t = np.arange(n) / rate
    sig = np.zeros((n, 3))
    sig[:, 0] = 1.0
    for axis in range(3):
        for _ in range(2):
            amp = rng.uniform(0.05, 0.25)
            freq = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            sig[:, axis] += amp * np.sin(2 * np.pi * freq * t + phase)
    sig += rng.normal(0.0, noise_sd, size=(n, 3))
    return _rescale_to_peak(sig, peak)


def synth_generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset: falls carry an injected impact spike,
    ADLs are low-frequency activity around 1 g. Every trace's max spatial
    norm equals its drawn peak, so range separation is exact."""
    rng = np.random.default_rng(spec.seed)
    n = max(2, int(round(spec.trace_duration_s * spec.sample_rate_hz)))
    traces = []
    for s in range(spec.n_subjects):
        subject = f"S{s + 1:02d}"
        for k in range(spec.falls_per_subject):
            peak = rng.uniform(*spec.fall_peak_range)
            samples = _fall_samples(rng, n, spec.sample_rate_hz, peak, spec.noise_sd)
            traces.append(Trace(subject, f"F{k + 1:02d}", FALL,
                                spec.sample_rate_hz, samples))
        for k in range(spec.adls_per_subject):
            peak = rng.uniform(*spec.adl_peak_range)
            samples = _adl_samples(rng, n, spec.sample_rate_hz, peak, spec.noise_sd)
            traces.append(Trace(subject, f"A{k + 1:02d}", ADL,
                                spec.sample_rate_hz, samples))
    return Dataset(name=f"synth-seed{spec.seed}", traces=tuple(traces))


def check_subjects(n_subjects: int) -> None:
    """Raise TooFewSubjects unless there are the 2 subjects a LOSO split needs."""
    if n_subjects < 2:
        raise TooFewSubjects(f"LOSO needs at least 2 subjects, got {n_subjects}")


def loso_folds(subject_ids) -> list:
    """Leave-one-subject-out folds over rows tagged with their subject ids:
    (subject, train_rows, test_rows) per subject, in sorted-subject order."""
    subject_ids = list(subject_ids)
    subjects = sorted(set(subject_ids))
    check_subjects(len(subjects))
    return [(subject, [i for i, s in enumerate(subject_ids) if s != subject],
             [i for i, s in enumerate(subject_ids) if s == subject])
            for subject in subjects]
