import numpy as np
import pytest

from fallcascade import dataset as ds


def _write(tmp_path, text, name="trace.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def duration_s(trace) -> float:
    return len(trace.samples) / trace.sample_rate_hz


HEADER = "subject=S1\ntrial=T1\nlabel=FALL\nrate_hz=200\n---\n"


class TestLoadTrace:
    def test_identity_rows(self, tmp_path):
        path = _write(tmp_path, HEADER + "1,0,0\n1,0,0\n1,0,0\n")
        trace = ds.load_trace(path)
        assert len(trace.samples) == 3
        assert np.allclose(np.linalg.norm(trace.samples, axis=1), 1.0)

    def test_duration_from_rate(self, tmp_path):
        rows = "\n".join(["0.1,0.2,0.3"] * 800)
        trace = ds.load_trace(_write(tmp_path, HEADER + rows + "\n"))
        assert duration_s(trace) == pytest.approx(4.0)

    def test_non_numeric_sample(self, tmp_path):
        path = _write(tmp_path, HEADER + "1,x,0\n")
        with pytest.raises(ds.NonNumericSample):
            ds.load_trace(path)

    def test_missing_separator(self, tmp_path):
        path = _write(tmp_path, "subject=S1\n1,0,0\n")
        with pytest.raises(ds.MalformedHeader):
            ds.load_trace(path)

    def test_missing_header_key(self, tmp_path):
        path = _write(tmp_path, "subject=S1\nlabel=FALL\nrate_hz=200\n---\n1,0,0\n")
        with pytest.raises(ds.MalformedHeader):
            ds.load_trace(path)

    def test_empty_body(self, tmp_path):
        with pytest.raises(ds.EmptyTrace):
            ds.load_trace(_write(tmp_path, HEADER))

    def test_non_positive_rate(self, tmp_path):
        path = _write(tmp_path, HEADER.replace("rate_hz=200", "rate_hz=0") + "1,0,0\n")
        with pytest.raises(ds.DatasetError, match=r"^sample_rate_hz must be > 0, got 0$"):
            ds.load_trace(path)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, small_dataset):
        for trace in small_dataset.traces[:6]:
            path = tmp_path / "t.txt"
            ds.write_trace(trace, path)
            assert ds.load_trace(path) == trace

    def test_manifest_round_trip(self, tmp_path, small_dataset):
        manifest = ds.write_dataset(small_dataset, tmp_path)
        loaded = ds.load_manifest(manifest)
        assert len(loaded) == len(small_dataset)
        assert loaded.subjects == small_dataset.subjects


def test_a_dataset_holds_one_sample_rate():
    # a report's sample volumes take one window length for every trace: a
    # 100 Hz subject among 50 Hz ones would be counted at the 50 Hz length
    def subjects(rate, ids):
        data = ds.synth_generate(ds.SynthSpec(n_subjects=3, sample_rate_hz=rate))
        return [t for t in data.traces if t.subject_id in ids]

    traces = subjects(50, ("S01", "S02")) + subjects(100, ("S03",))
    with pytest.raises(ds.DatasetError, match="traces S01/F01 and S03/F01 have sample "
                                              "rates 50 and 100 Hz"):
        ds.Dataset("mixed", traces)


def test_a_dataset_holds_each_trace_once():
    # a repeated (subject, trial) would count twice in its subject's fold
    traces = ds.synth_generate(ds.SynthSpec(n_subjects=2)).traces
    with pytest.raises(ds.DatasetError, match="^trace S01/F02 is listed twice$"):
        ds.Dataset("repeated", traces + traces[1:2])


class TestSynthGenerate:
    def test_counts(self):
        spec = ds.SynthSpec(n_subjects=3, falls_per_subject=2, adls_per_subject=2)
        data = ds.synth_generate(spec)
        assert len(data) == 12
        assert len(data.subjects) == 3

    def test_deterministic_per_seed(self):
        spec = ds.SynthSpec(n_subjects=2, falls_per_subject=2, adls_per_subject=2,
                            seed=123)
        a = ds.synth_generate(spec)
        b = ds.synth_generate(spec)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.samples.tobytes() == tb.samples.tobytes()

    def test_disjoint_peak_ranges_separate_max_norms(self):
        spec = ds.SynthSpec(n_subjects=4, falls_per_subject=3, adls_per_subject=3,
                            fall_peak_range=(3.0, 6.0), adl_peak_range=(0.5, 1.5),
                            seed=5)
        data = ds.synth_generate(spec)
        max_norm = lambda t: np.linalg.norm(t.samples, axis=1).max()
        fall_norms = [max_norm(t) for t in data.traces if t.label == ds.FALL]
        adl_norms = [max_norm(t) for t in data.traces if t.label == ds.ADL]
        assert min(fall_norms) > max(adl_norms)

    def test_invalid_spec(self):
        with pytest.raises(ds.InvalidSpec):
            ds.synth_generate(ds.SynthSpec(n_subjects=0))
        with pytest.raises(ds.InvalidSpec):
            ds.synth_generate(ds.SynthSpec(fall_peak_range=(2.0, 2.0)))

    @pytest.mark.parametrize("kw", [dict(n_subjects=0), dict(adl_peak_range=(1.0, 0.5)),
                                    dict(sample_rate_hz=0), dict(noise_sd=-0.1)],
                             ids=["n_subjects", "adl_peak_range", "sample_rate_hz", "noise_sd"])
    def test_invalid_spec_fails_when_built(self, kw):
        with pytest.raises(ValueError) as e:
            ds.SynthSpec(**kw)
        assert isinstance(e.value, ds.InvalidSpec)


def _subject_ids(dataset):
    return [t.subject_id for t in dataset.traces]


class TestSplitLoso:
    def test_held_out_subject_isolated(self, small_dataset):
        ids = _subject_ids(small_dataset)
        folds = {subject: (train, test) for subject, train, test in ds.loso_folds(ids)}
        train, test = folds["S02"]
        assert {ids[i] for i in test} == {"S02"}
        assert "S02" not in {ids[i] for i in train}

    def test_every_subject_tested_once(self, small_dataset):
        tested = [subject for subject, _, _ in ds.loso_folds(_subject_ids(small_dataset))]
        assert tested == list(small_dataset.subjects)
        assert len(tested) == len(small_dataset.subjects)

    def test_partition_property(self, small_dataset):
        ids = _subject_ids(small_dataset)
        for subject, train, test in ds.loso_folds(ids):
            assert sorted(train + test) == list(range(len(ids)))
            assert {ids[i] for i in train}.isdisjoint(ids[i] for i in test)

    def test_rows_keep_their_order(self):
        folds = ds.loso_folds(["S2", "S1", "S2", "S1", "S3"])
        assert folds == [("S1", [0, 2, 4], [1, 3]), ("S2", [1, 3, 4], [0, 2]),
                         ("S3", [0, 1, 2, 3], [4])]

    @pytest.mark.parametrize("ids", [[], ["S1"], ["S1", "S1"]])
    def test_needs_two_subjects(self, ids):
        with pytest.raises(ds.TooFewSubjects, match=f"got {len(set(ids))}"):
            ds.loso_folds(ids)
        assert issubclass(ds.TooFewSubjects, ValueError)
