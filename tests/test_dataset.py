import json
import math
import re

import numpy as np
import pytest

from msr.cli import main
from msr.config import RunConfig
from msr.dataset import (
    FeatureGeometry,
    GeneratorConfig,
    MODALITIES,
    generate,
    half_partition,
    load,
    opposite_half,
    oracle_valid,
    save,
)
from msr.errors import ConfigError, ParseError
from msr.pipeline import execute_run

SMALL = GeneratorConfig(n_per_modality=60, seed=5)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


class TestConfigValidation:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError, match="n_per_modality"):
            GeneratorConfig(n_per_modality=0)

    def test_label_noise_below_half(self):
        with pytest.raises(ConfigError, match="label_noise"):
            GeneratorConfig(label_noise={"visual": 0.5, "auditory": 0.1, "tactile": 0.1})

    def test_feature_dim_must_fit_layout(self):
        with pytest.raises(ConfigError, match="feature_dim"):
            GeneratorConfig(feature_dim=4)

    def test_missing_modality_noise(self):
        with pytest.raises(ConfigError, match="label_noise"):
            GeneratorConfig(label_noise={"visual": 0.1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            GeneratorConfig.from_mapping({"n_records": 5})


class TestGenerate:
    def test_counts_and_id_order(self, small_dataset):
        assert len(small_dataset.records) == 3 * SMALL.n_per_modality
        assert [r.id for r in small_dataset.records] == list(range(len(small_dataset.records)))
        for m in MODALITIES:
            assert len(small_dataset.by_modality(m)) == SMALL.n_per_modality

    def test_invariants(self, small_dataset):
        for r in small_dataset.records:
            assert 0.0 <= r.trust <= 1.0
            assert len(r.features) == SMALL.feature_dim
            assert all(np.isfinite(x) for x in r.features)
            assert 0 <= r.action < SMALL.n_actions
            assert 0 <= r.mem_label < SMALL.n_memory_classes

    def test_determinism_equal_values(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a == b

    def test_record_content_independent_of_corpus_size(self):
        few = generate(GeneratorConfig(n_per_modality=5, seed=5))
        many = generate(GeneratorConfig(n_per_modality=20, seed=5))
        for m_idx, m in enumerate(MODALITIES):
            fa = few.by_modality(m)
            ma = many.by_modality(m)[:5]
            assert fa.features.tobytes() == ma.features.tobytes()
            assert fa.trust.tobytes() == ma.trust.tobytes()

    def test_oracle_perfect_at_zero_noise(self):
        cfg = GeneratorConfig(
            n_per_modality=250, seed=9,
            label_noise={"visual": 0.0, "auditory": 0.0, "tactile": 0.0})
        ds = generate(cfg)
        geom = FeatureGeometry.from_config(cfg)
        for r in ds.records:
            f = np.asarray(r.features)
            assert oracle_valid(r.trust, cfg.trust_distribution) == r.valid
            assert geom.oracle_relevant(f) == r.relevant
            assert geom.oracle_action(f) == r.action
            assert geom.oracle_memory(f) == r.mem_label

    def test_flip_fraction_within_binomial_band(self):
        # binomial 99% interval for p=0.1, n=10,000 -> [0.092, 0.108]
        p = 0.10
        cfg = GeneratorConfig(
            n_per_modality=10_000, seed=42,
            label_noise={"visual": p, "auditory": p, "tactile": p})
        ds = generate(cfg)
        geom = FeatureGeometry.from_config(cfg)
        recs = [r for r in ds.records if r.modality == "visual"]
        flips = {"valid": 0, "relevant": 0, "action": 0, "mem": 0}
        for r in recs:
            f = np.asarray(r.features)
            flips["valid"] += oracle_valid(r.trust, cfg.trust_distribution) != r.valid
            flips["relevant"] += geom.oracle_relevant(f) != r.relevant
            flips["action"] += geom.oracle_action(f) != r.action
            flips["mem"] += geom.oracle_memory(f) != r.mem_label
        n = len(recs)
        for name, count in flips.items():
            assert 0.092 <= count / n <= 0.108, (name, count / n)

    def test_label_flips_cross_the_half_partition(self, small_dataset):
        geom = FeatureGeometry.from_config(SMALL)
        for r in small_dataset.records:
            f = np.asarray(r.features)
            for stored, latent, n in (
                (r.action, geom.oracle_action(f), SMALL.n_actions),
                (r.mem_label, geom.oracle_memory(f), SMALL.n_memory_classes),
            ):
                if stored != latent:
                    assert half_partition(stored, n) != half_partition(latent, n)

    def test_trust_bands_leave_margin_at_mean(self, small_dataset):
        mean, _ = SMALL.trust_distribution
        for r in small_dataset.records:
            assert abs(r.trust - mean) > 1e-6


class TestOppositeHalf:
    def test_always_lands_in_other_half(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 6):
            for label in range(n):
                for _ in range(10):
                    flipped = opposite_half(label, n, rng.random())
                    assert half_partition(flipped, n) != half_partition(label, n)
                    assert flipped != label


class TestRoundTrip:
    def test_small_round_trip_exact(self, tmp_path):
        ds = generate(GeneratorConfig(n_per_modality=3, seed=1))
        path = tmp_path / "ds.json"
        save(ds, str(path))
        assert load(str(path)) == ds

    def test_byte_identical_saves(self, tmp_path, small_dataset):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(small_dataset, str(p1))
        save(small_dataset, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_scale_load_revalidates(self, tmp_path):
        ds = generate(GeneratorConfig(n_per_modality=400, seed=2))
        path = tmp_path / "ds.json"
        save(ds, str(path))
        again = load(str(path))
        assert again == ds


class TestInterleavedFile:
    """A hand-written file may alternate modalities record by record; ids
    still increase and the counts match meta, so it loads, and everything
    downstream follows the file's order."""

    @pytest.fixture()
    def interleaved(self, tmp_path):
        source = generate(GeneratorConfig(n_per_modality=20, seed=11))
        by_modality = [[row for row in _payload(source)["records"] if row["modality"] == m]
                       for m in MODALITIES]
        rows = [row for triple in zip(*by_modality) for row in triple]
        for rid, row in enumerate(rows):
            row["id"] = rid
        path = tmp_path / "interleaved.json"
        text = json.dumps({"meta": source.meta, "records": rows}, separators=(",", ":"))
        path.write_bytes((text + "\n").encode("utf-8"))
        return source, path

    def test_load_then_save_reproduces_the_bytes(self, tmp_path, interleaved):
        _, path = interleaved
        again = tmp_path / "again.json"
        save(load(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_records_and_modality_views_follow_the_file(self, interleaved):
        source, path = interleaved
        data = load(str(path))
        assert [r.modality for r in data.records] == list(MODALITIES) * 20
        assert [r.id for r in data.records] == list(range(60))
        for k, m in enumerate(MODALITIES):
            rows, original = data.by_modality(m), source.by_modality(m)
            assert rows.ids.tolist() == list(range(k, 60, 3))
            assert rows.features.tobytes() == original.features.tobytes()
            assert rows.trust.tobytes() == original.trust.tobytes()
            assert rows.action.tolist() == original.action.tolist()

    def test_run_traces_every_record_in_id_order(self, tmp_path, interleaved):
        source, path = interleaved
        cfg = RunConfig(dataset_path=str(path), seed=11, out_dir=str(tmp_path / "out"))
        result = execute_run(cfg)
        with open(result.trace_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [line["id"] for line in lines] == list(range(60))
        assert [line["modality"] for line in lines] == list(MODALITIES) * 20
        assert all(line["kept"] == (line["trust"] > cfg.tau) for line in lines)
        with open(result.summary_path, encoding="utf-8") as fh:
            survivors = json.load(fh)["survivors"]
        assert survivors == {m: int(np.count_nonzero(source.by_modality(m).trust > cfg.tau))
                             for m in MODALITIES}

    def test_run_of_two_modalities_traces_only_theirs_in_id_order(self, tmp_path, interleaved):
        _, path = interleaved
        traces = {}
        for name, modalities in (("all", MODALITIES), ("two", ("visual", "tactile"))):
            cfg = RunConfig(dataset_path=str(path), seed=11, modalities=modalities,
                            out_dir=str(tmp_path / name))
            with open(execute_run(cfg).trace_path, encoding="utf-8") as fh:
                traces[name] = fh.read().splitlines()
        lines = [json.loads(line) for line in traces["two"]]
        assert [line["id"] for line in lines] == [i for i in range(60) if i % 3 != 1]
        assert [line["modality"] for line in lines] == ["visual", "tactile"] * 20
        # each line is the one the run of every modality writes for that record
        assert traces["two"] == [line for i, line in enumerate(traces["all"]) if i % 3 != 1]


def _payload(ds):
    return {
        "meta": ds.meta,
        "records": [
            {"id": r.id, "modality": r.modality, "features": list(r.features),
             "trust": r.trust, "valid": r.valid, "relevant": r.relevant,
             "action": r.action, "mem_label": r.mem_label}
            for r in ds.records
        ],
    }


_FIELDS = "('id', 'modality', 'features', 'trust', 'valid', 'relevant', 'action', 'mem_label')"
_DROP = object()

# Edits to the n=2 payload, as (record, field, value): a field of None
# replaces the whole record, an int field is an index into its features, and
# _DROP deletes the field. Each message is the one the per-record loader gave
# before the checks ran over columns: the lowest bad record, and the first
# check that fails there.
EXACT_MESSAGES = {
    "not-an-object": ([(1, None, [1, 2])], f"record 1: fields must be exactly {_FIELDS}"),
    "missing-field": ([(2, "valid", _DROP)], f"record 2: fields must be exactly {_FIELDS}"),
    "id-bool": ([(0, "id", True)], "record 0: id must be an integer"),
    "id-float": ([(3, "id", 3.0)], "record 3: id must be an integer"),
    "id-string": ([(2, "id", "2")], "record 2: id must be an integer"),
    "first-id-not-zero": ([(0, "id", 1)],
                          "record 0: id 1 breaks the strictly-increasing-from-0 order"),
    "id-repeats": ([(4, "id", 3)], "record 4: id 3 breaks the strictly-increasing-from-0 order"),
    "id-negative": ([(1, "id", -1)],
                    "record 1: id -1 breaks the strictly-increasing-from-0 order"),
    "modality-unknown": ([(3, "modality", "olfactory")], "record 3: unknown modality 'olfactory'"),
    "modality-list": ([(3, "modality", ["visual"])], "record 3: unknown modality ['visual']"),
    "features-short": ([(2, "features", [0.5] * 7)], "record 2: features must hold 8 numbers"),
    "features-not-list": ([(5, "features", {"0": 1.0})], "record 5: features must hold 8 numbers"),
    "feature-bool": ([(1, 4, False)], "record 1: features[4] not a finite number"),
    "feature-null": ([(1, 0, None)], "record 1: features[0] not a finite number"),
    "feature-string": ([(4, 7, "1.0")], "record 4: features[7] not a finite number"),
    "feature-nan": ([(2, 3, math.nan)], "record 2: features[3] not a finite number"),
    "feature-inf": ([(2, 5, -math.inf)], "record 2: features[5] not a finite number"),
    "trust-above": ([(2, "trust", 1.3)], "record 2: trust 1.3 outside [0, 1]"),
    "trust-negative-int": ([(2, "trust", -1)], "record 2: trust -1 outside [0, 1]"),
    "trust-bool": ([(0, "trust", True)], "record 0: trust True outside [0, 1]"),
    "trust-string": ([(0, "trust", "0.7")], "record 0: trust '0.7' outside [0, 1]"),
    "trust-nan": ([(5, "trust", math.nan)], "record 5: trust nan outside [0, 1]"),
    "valid-int": ([(4, "valid", 1)], "record 4: valid must be a boolean"),
    "relevant-null": ([(4, "relevant", None)], "record 4: relevant must be a boolean"),
    "action-high": ([(3, "action", 9)], "record 3: action 9 outside [0, 4)"),
    "action-bool": ([(3, "action", False)], "record 3: action False outside [0, 4)"),
    "action-float": ([(1, "action", 1.0)], "record 1: action 1.0 outside [0, 4)"),
    "mem-negative": ([(5, "mem_label", -1)], "record 5: mem_label -1 outside [0, 4)"),
    "mem-string": ([(0, "mem_label", "2")], "record 0: mem_label '2' outside [0, 4)"),
    "two-faults-later-check-lower": ([(3, "action", 9), (1, "trust", 2.0)],
                                     "record 1: trust 2.0 outside [0, 1]"),
    "two-faults-earlier-check-higher": ([(4, "trust", _DROP), (2, 1, "x")],
                                        "record 2: features[1] not a finite number"),
    "one-record-three-faults": ([(2, "relevant", 0), (2, "valid", "yes"), (2, "mem_label", 7)],
                                "record 2: valid must be a boolean"),
    "counts": ([(0, "modality", "auditory")],
               "record counts {'visual': 1, 'auditory': 3, 'tactile': 2} do not match "
               "meta {'visual': 2, 'auditory': 2, 'tactile': 2}"),
    # beyond what a float64 or a uint64 column holds
    "feature-huge-int": ([(3, 2, 10 ** 400)], "record 3: features[2] not a finite number"),
    "trust-huge-int": ([(1, "trust", 10 ** 400)], f"record 1: trust {10 ** 400} outside [0, 1]"),
    "id-2**64": ([(5, "id", 2 ** 64)], f"record 5: id {2 ** 64} outside [0, 2**64)"),
    "id-2**64-first": ([(0, "id", 2 ** 64)],
                       f"record 0: id {2 ** 64} breaks the strictly-increasing-from-0 order"),
    "id-huge-negative": ([(2, "id", -(2 ** 70))],
                         f"record 2: id {-(2 ** 70)} breaks the strictly-increasing-from-0 order"),
    "action-huge": ([(4, "action", 2 ** 70)], f"record 4: action {2 ** 70} outside [0, 4)"),
}


def _edited(payload, edits):
    for i, key, value in edits:
        if key is None:
            payload["records"][i] = value
        elif isinstance(key, int):
            payload["records"][i]["features"][key] = value
        elif value is _DROP:
            del payload["records"][i][key]
        else:
            payload["records"][i][key] = value
    return payload


def _write_config(tmp_path, mapping):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return path


def _bad_file(tmp_path, name):
    path = tmp_path / "bad.json"
    payload = _payload(generate(GeneratorConfig(n_per_modality=2, seed=3)))
    path.write_text(json.dumps(_edited(payload, EXACT_MESSAGES[name][0])))
    return path


class TestLoadValidation:
    @pytest.fixture()
    def tiny_payload(self):
        return _payload(generate(GeneratorConfig(n_per_modality=2, seed=3)))

    def _write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_trust_out_of_range_names_record(self, tmp_path, tiny_payload):
        tiny_payload["records"][2]["trust"] = 1.3
        with pytest.raises(ParseError, match=r"record 2.*trust"):
            load(self._write(tmp_path, tiny_payload))

    def test_duplicate_ids(self, tmp_path, tiny_payload):
        tiny_payload["records"][1]["id"] = 0
        with pytest.raises(ParseError, match="record 1"):
            load(self._write(tmp_path, tiny_payload))

    def test_schema_version_mismatch(self, tmp_path, tiny_payload):
        tiny_payload["meta"]["schema_version"] = 99
        with pytest.raises(ParseError, match="schema_version"):
            load(self._write(tmp_path, tiny_payload))

    def test_malformed_feature(self, tmp_path, tiny_payload):
        tiny_payload["records"][0]["features"][1] = "oops"
        with pytest.raises(ParseError, match=r"record 0.*features\[1\]"):
            load(self._write(tmp_path, tiny_payload))

    def test_wrong_feature_count(self, tmp_path, tiny_payload):
        tiny_payload["records"][0]["features"].append(0.0)
        with pytest.raises(ParseError, match="record 0"):
            load(self._write(tmp_path, tiny_payload))

    def test_action_out_of_range(self, tmp_path, tiny_payload):
        tiny_payload["records"][3]["action"] = 9
        with pytest.raises(ParseError, match="record 3.*action"):
            load(self._write(tmp_path, tiny_payload))

    def test_counts_mismatch(self, tmp_path, tiny_payload):
        tiny_payload["records"][0]["modality"] = "auditory"
        with pytest.raises(ParseError, match="counts"):
            load(self._write(tmp_path, tiny_payload))

    def test_feature_layout_inconsistent_with_generator(self, tmp_path, tiny_payload):
        tiny_payload["meta"]["feature_layout"]["padding"] = [6]
        path = self._write(tmp_path, tiny_payload)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}: meta\.feature_layout .*inconsistent"):
            load(path)

    def test_unknown_meta_key(self, tmp_path, tiny_payload):
        tiny_payload["meta"]["note"] = "hand-edited"
        path = self._write(tmp_path, tiny_payload)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}: meta\.note is not a meta key"):
            load(path)

    def test_meta_counts_inconsistent_with_generator(self, tmp_path, tiny_payload):
        tiny_payload["meta"]["counts"]["visual"] = 3
        path = self._write(tmp_path, tiny_payload)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}: meta\.counts .*inconsistent"):
            load(path)

    def test_unexpected_field(self, tmp_path, tiny_payload):
        tiny_payload["records"][0]["extra"] = 1
        with pytest.raises(ParseError, match="record 0"):
            load(self._write(tmp_path, tiny_payload))

    def test_no_records(self, tmp_path, tiny_payload):
        tiny_payload["records"] = []
        path = self._write(tmp_path, tiny_payload)
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == (
            f"{path}: record counts {{'visual': 0, 'auditory': 0, 'tactile': 0}} do not "
            "match meta {'visual': 2, 'auditory': 2, 'tactile': 2}")

    @pytest.mark.parametrize("name", sorted(EXACT_MESSAGES))
    def test_exact_load_messages(self, tmp_path, name):
        path = _bad_file(tmp_path, name)
        message = EXACT_MESSAGES[name][1]
        with pytest.raises(ParseError) as info:
            load(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", ["feature-huge-int", "trust-huge-int", "id-2**64"])
    def test_oversized_integers_end_in_an_error_line(self, tmp_path, capsys, name):
        path = _bad_file(tmp_path, name)
        message = EXACT_MESSAGES[name][1]
        assert main(["run", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"

    def test_largest_id_loads_and_runs(self, tmp_path, capsys):
        payload = _payload(generate(GeneratorConfig(n_per_modality=2, seed=3)))
        payload["records"][5]["id"] = 2 ** 64 - 1
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload))
        assert load(str(path)).by_modality("tactile").ids.tolist() == [4, 2 ** 64 - 1]
        out = tmp_path / "out"
        config = _write_config(tmp_path, {"tau": 0.0})
        argv = ["run", "--data", str(path), "--config", str(config), "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        last = json.loads((out / "trace.jsonl").read_text().splitlines()[-1])
        assert last["id"] == 2 ** 64 - 1

    @pytest.mark.parametrize("flag", ["--data", "--config"])
    @pytest.mark.parametrize("text,reason", [("[" * 100_000, "nesting too deep\n"),
                                             ("1" * 5000, "Exceeds the limit (4300 digits)")])
    def test_unreadable_json_ends_in_an_error_line(self, tmp_path, capsys, flag, text, reason):
        path = tmp_path / "unreadable.json"
        path.write_text(text)
        assert main(["run", flag, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: {reason}")
