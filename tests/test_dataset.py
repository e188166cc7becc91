import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from msr import dataset
from msr.cli import main
from msr.config import RunConfig
from msr.dataset import (
    SAVE_BLOCK,
    FeatureGeometry,
    GeneratorConfig,
    MODALITIES,
    generate,
    half_partition,
    load,
    opposite_half,
    save,
)
from msr.errors import ConfigError, ParseError
from msr.pipeline import execute_run

SMALL = GeneratorConfig(n_per_modality=60, seed=5)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


# nearest-cluster oracles of a record's labels, exact on generated data by
# the margin bound

def oracle_valid(trust: float, trust_distribution) -> bool:
    mean, _ = trust_distribution
    return trust > mean


def oracle_relevant(geom: FeatureGeometry, features) -> bool:
    f = np.asarray(features, dtype=float)
    return float(f[list(geom.relevance_dims)].sum()) < 0.0


def _oracle_class(features, dims, n_classes: int) -> int:
    f = np.asarray(features, dtype=float)
    best, best_v = 0, -math.inf
    for label in range(n_classes):
        sign = 1.0 if label % 2 == 0 else -1.0
        v = sign * f[dims[label // 2]]
        if v > best_v:
            best, best_v = label, v
    return best


def oracle_action(geom: FeatureGeometry, features) -> int:
    return _oracle_class(features, geom.action_dims, geom.n_actions)


def oracle_memory(geom: FeatureGeometry, features) -> int:
    return _oracle_class(features, geom.memory_dims, geom.n_memory_classes)


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

    @pytest.mark.parametrize("chunk, n", [(1, 1), (1, 7), (1, 300), (5, 1), (5, 7), (5, 300),
                                          (5, 4099), (4096, 1), (4096, 7), (4096, 300),
                                          (4096, 4099)])
    def test_any_chunk_size(self, tmp_path, monkeypatch, chunk, n):
        # each record is drawn from its own key, so how the rows are split
        # into draws changes no bit of the dataset or its file
        cfg = GeneratorConfig(n_per_modality=n, feature_dim=12, n_actions=3, n_memory_classes=5,
                              seed=11)
        whole = generate(cfg)
        save(whole, str(tmp_path / "whole.json"))
        monkeypatch.setattr(dataset, "_GEN_CHUNK", chunk)
        chunked = generate(cfg)
        save(chunked, str(tmp_path / "chunked.json"))
        assert chunked == whole
        assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "whole.json").read_bytes()

    def test_oracle_perfect_at_zero_noise(self):
        cfg = GeneratorConfig(
            n_per_modality=250, seed=9,
            label_noise={"visual": 0.0, "auditory": 0.0, "tactile": 0.0})
        ds = generate(cfg)
        geom = FeatureGeometry.from_config(cfg)
        for r in ds.records:
            f = np.asarray(r.features)
            assert oracle_valid(r.trust, cfg.trust_distribution) == r.valid
            assert oracle_relevant(geom, f) == r.relevant
            assert oracle_action(geom, f) == r.action
            assert oracle_memory(geom, f) == r.mem_label

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
            flips["relevant"] += oracle_relevant(geom, f) != r.relevant
            flips["action"] += oracle_action(geom, f) != r.action
            flips["mem"] += oracle_memory(geom, f) != r.mem_label
        n = len(recs)
        for name, count in flips.items():
            assert 0.092 <= count / n <= 0.108, (name, count / n)

    def test_label_flips_cross_the_half_partition(self, small_dataset):
        geom = FeatureGeometry.from_config(SMALL)
        for r in small_dataset.records:
            f = np.asarray(r.features)
            for stored, latent, n in (
                (r.action, oracle_action(geom, f), SMALL.n_actions),
                (r.mem_label, oracle_memory(geom, f), SMALL.n_memory_classes),
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


def _saved_layout(payload) -> str:
    """The payload's text in the bytes `save` writes, which `load` reads
    first in numpy, and hands to the walk only when a byte or a record
    check fails there."""
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _bad_file(tmp_path, name, dumps=json.dumps):
    path = tmp_path / "bad.json"
    payload = _payload(generate(GeneratorConfig(n_per_modality=2, seed=3)))
    path.write_text(dumps(_edited(payload, EXACT_MESSAGES[name][0])))
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

    @pytest.mark.parametrize("name", sorted(EXACT_MESSAGES))
    def test_exact_load_messages_in_the_saved_layout(self, tmp_path, name):
        path = _bad_file(tmp_path, name, _saved_layout)
        with pytest.raises(ParseError) as info:
            load(str(path))
        assert str(info.value) == f"{path}: {EXACT_MESSAGES[name][1]}"

    @pytest.mark.parametrize("name", ["feature-huge-int", "trust-huge-int", "id-2**64"])
    def test_oversized_integers_in_the_saved_layout_end_in_an_error_line(self, tmp_path, capsys,
                                                                          name):
        path = _bad_file(tmp_path, name, _saved_layout)
        assert main(["run", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {EXACT_MESSAGES[name][1]}\n"

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


# `load` checks the records a block of SAVE_BLOCK at a time; 1 and 3 put
# block boundaries inside the n=2 files above
BLOCKS = [1, 3, SAVE_BLOCK]


@pytest.fixture(params=BLOCKS, ids=lambda block: f"block{block}")
def block(request, monkeypatch):
    monkeypatch.setattr(dataset, "SAVE_BLOCK", request.param)
    return request.param


def _two_block_file(tmp_path, block, edits=(), dumps=json.dumps):
    """A generated dataset with at least block + 1 records, and the path of
    its file with `edits` (as in EXACT_MESSAGES) made."""
    source = generate(GeneratorConfig(n_per_modality=block // 3 + 1, seed=3))
    path = tmp_path / "data.json"
    path.write_text(dumps(_edited(_payload(source), edits)))
    return source, path


def _load_message(path) -> str:
    with pytest.raises(ParseError) as info:
        load(str(path))
    return str(info.value)


class TestBlocks:
    @pytest.mark.parametrize("name", sorted(EXACT_MESSAGES))
    def test_exact_load_messages(self, tmp_path, block, name):
        path = _bad_file(tmp_path, name)
        assert _load_message(path) == f"{path}: {EXACT_MESSAGES[name][1]}"

    def test_valid_file_loads_equal(self, tmp_path, block):
        source, path = _two_block_file(tmp_path, block)
        assert load(str(path)) == source

    def test_fault_at_the_first_record_of_block_two(self, tmp_path, block):
        _, path = _two_block_file(tmp_path, block, [(block, "trust", 1.3)])
        assert _load_message(path) == f"{path}: record {block}: trust 1.3 outside [0, 1]"

    def test_duplicate_id_across_a_block_boundary(self, tmp_path, block):
        _, path = _two_block_file(tmp_path, block, [(block, "id", block - 1)])
        assert _load_message(path) == (
            f"{path}: record {block}: id {block - 1} breaks the strictly-increasing-from-0 order")

    def test_faults_in_two_blocks_name_the_lower_record(self, tmp_path, block):
        # the lower record fails a later check than the higher one
        _, path = _two_block_file(tmp_path, block, [(block, "id", "x"),
                                                    (block - 1, "mem_label", 9)])
        assert _load_message(path) == f"{path}: record {block - 1}: mem_label 9 outside [0, 4)"

    # the same cases in the bytes `save` writes: each fault sends the file
    # from the numpy reader to the walk, which names it

    @pytest.mark.parametrize("name", sorted(EXACT_MESSAGES))
    def test_exact_load_messages_in_the_saved_layout(self, tmp_path, block, name):
        path = _bad_file(tmp_path, name, _saved_layout)
        assert _load_message(path) == f"{path}: {EXACT_MESSAGES[name][1]}"

    def test_valid_file_in_the_saved_layout_loads_equal(self, tmp_path, block):
        source, path = _two_block_file(tmp_path, block, dumps=_saved_layout)
        save(source, str(tmp_path / "saved.json"))
        assert path.read_bytes() == (tmp_path / "saved.json").read_bytes()
        assert load(str(path)) == source

    def test_faults_in_the_saved_layout_name_the_lower_record(self, tmp_path, block):
        for edits, message in (([(block, "trust", 1.3)],
                                f"record {block}: trust 1.3 outside [0, 1]"),
                               ([(block, "id", block - 1)], f"record {block}: id {block - 1} "
                                "breaks the strictly-increasing-from-0 order"),
                               ([(block, "id", "x"), (block - 1, "mem_label", 9)],
                                f"record {block - 1}: mem_label 9 outside [0, 4)")):
            _, path = _two_block_file(tmp_path, block, edits, _saved_layout)
            assert _load_message(path) == f"{path}: {message}"


def _json_message(path) -> str:
    """json.loads' own error for the file's text, as `load` reports it."""
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return f"{path}: invalid JSON: {exc}"
    raise AssertionError(f"{path} holds valid JSON")


@pytest.fixture(scope="module")
def large_text(tmp_path_factory):
    """A generated dataset and its file's text as `save` writes it, which
    runs past the first piece that `load` reads."""
    source = generate(GeneratorConfig(n_per_modality=6_000, seed=7))
    path = tmp_path_factory.mktemp("large") / "data.json"
    save(source, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == _saved_layout(_payload(source))
    assert len(text) > dataset._PIECE
    return source, text


def _members(*pairs) -> str:
    """A top-level object of (key, value) members, keys repeated as given."""
    return "{" + ",".join(f"{json.dumps(key)}:{json.dumps(value)}" for key, value in pairs) + "}"


class TestJsonOutcomes:
    """Whatever the layout of the top-level object, `load` ends as json.load
    of the whole file did: the last of a repeated key wins, and text that is
    not JSON gets json's own message and position."""

    @pytest.fixture()
    def tiny(self):
        source = generate(GeneratorConfig(n_per_modality=2, seed=3))
        return source, _payload(source)

    def _write(self, tmp_path, text):
        path = tmp_path / "data.json"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return path

    def test_records_before_meta(self, tmp_path, tiny):
        source, payload = tiny
        path = self._write(tmp_path, _members(("records", payload["records"]),
                                              ("meta", payload["meta"])))
        assert load(str(path)) == source

    def test_whitespace_between_every_token(self, tmp_path, block, tiny):
        source, payload = tiny
        path = self._write(tmp_path, " \n" + json.dumps(payload, indent="\t") + "\r\n ")
        assert load(str(path)) == source

    def test_last_records_wins_and_a_faulty_first_is_not_reported(self, tmp_path, tiny):
        source, payload = tiny
        faulty = _edited(_payload(source), [(0, "trust", 1.3)])["records"]
        path = self._write(tmp_path, _members(("meta", payload["meta"]), ("records", faulty),
                                              ("records", payload["records"])))
        assert load(str(path)) == source
        path = self._write(tmp_path, _members(("meta", payload["meta"]),
                                              ("records", payload["records"]), ("records", faulty)))
        assert _load_message(path) == f"{path}: record 0: trust 1.3 outside [0, 1]"

    def test_last_meta_wins(self, tmp_path, tiny):
        source, payload = tiny
        # under the first meta every record has too few features
        wider = generate(GeneratorConfig(n_per_modality=2, seed=3, feature_dim=9)).meta
        for first in (wider, {"schema_version": 99}, "not a meta block"):
            path = self._write(tmp_path, _members(("meta", first), ("records", payload["records"]),
                                                  ("meta", payload["meta"])))
            assert load(str(path)) == source
        path = self._write(tmp_path, _members(("meta", payload["meta"]),
                                              ("records", payload["records"]), ("meta", wider)))
        assert _load_message(path) == f"{path}: record 0: features must hold 9 numbers"

    def test_only_meta_and_records(self, tmp_path, tiny):
        _, payload = tiny
        for pairs in ([("meta", payload["meta"])], [("records", [])],
                      [("meta", payload["meta"]), ("records", payload["records"]), ("x", [])]):
            path = self._write(tmp_path, _members(*pairs))
            assert _load_message(path) == (
                f"{path}: top level must be an object with keys meta, records")

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "1", '"meta"', "null", "{}"])
    def test_top_level_not_an_object_with_meta_and_records(self, tmp_path, text):
        path = self._write(tmp_path, text)
        assert _load_message(path) == (
            f"{path}: top level must be an object with keys meta, records")

    @pytest.mark.parametrize("text", ["", "   ", "[", "{", "{,}", '{"meta":1,}', '{"meta" 1}',
                                      '{"meta":1}}', "{} x", "\ufeff{}", "nul", '{"meta":[1,]}'])
    def test_short_text_that_is_not_json(self, tmp_path, text):
        path = self._write(tmp_path, text)
        assert _load_message(path) == _json_message(path)

    def test_trailing_data(self, tmp_path, large_text):
        _, text = large_text
        for tail in ("x", " {}", "\n]"):
            path = self._write(tmp_path, text + tail)
            assert _load_message(path) == _json_message(path)

    def test_utf8_bom(self, tmp_path, large_text):
        _, text = large_text
        path = self._write(tmp_path, b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert _load_message(path) == _json_message(path)

    def test_non_utf8_byte_past_the_first_piece(self, tmp_path, large_text):
        _, text = large_text
        at = text.rindex('"tactile"') + 3
        assert at > dataset._PIECE
        path = self._write(tmp_path, text[:at].encode("utf-8") + b"\xff" + text[at:].encode("utf-8"))
        message = _json_message(path)
        assert f"position {at}" in message
        assert _load_message(path) == message

    def test_file_cut_mid_record(self, tmp_path, large_text):
        _, text = large_text
        for cut in (300, dataset._PIECE + 5, len(text) // 2, len(text) - 2):
            path = self._write(tmp_path, text[:cut])
            assert _load_message(path) == _json_message(path)

    def test_record_fault_then_invalid_json(self, tmp_path, large_text):
        source, _ = large_text
        text = json.dumps(_edited(_payload(source), [(0, "trust", 1.3)]), separators=(",", ":"))
        path = self._write(tmp_path, text[:-2] + ",]}")
        message = _json_message(path)
        assert "invalid JSON" in message
        assert _load_message(path) == message

    def test_large_file_loads_equal(self, tmp_path, large_text):
        source, text = large_text
        assert load(str(self._write(tmp_path, text))) == source

    @pytest.mark.parametrize("piece", [1, 2, 7, 64])
    def test_any_piece_size(self, tmp_path, monkeypatch, tiny, piece):
        # every token in turn is cut at the end of a piece
        monkeypatch.setattr(dataset, "_PIECE", piece)
        source, payload = tiny
        for text in (json.dumps(payload, separators=(",", ":")), json.dumps(payload, indent=1)):
            path = self._write(tmp_path, text)
            assert load(str(path)) == source
            path = self._write(tmp_path, text[:-1])
            assert _load_message(path) == _json_message(path)
        path = _bad_file(tmp_path, "feature-huge-int")
        assert _load_message(path) == f"{path}: {EXACT_MESSAGES['feature-huge-int'][1]}"


def _walk_calls(monkeypatch) -> list:
    """The paths `dataset._walk` is called with, from now on."""
    calls = []
    walk = dataset._walk

    def counted(path, cfg=None):
        calls.append(path)
        return walk(path, cfg)
    monkeypatch.setattr(dataset, "_walk", counted)
    return calls


def test_saved_file_loads_without_the_walk(tmp_path, monkeypatch):
    # a file `save` wrote is read in numpy alone, so a fault that sent it to
    # the walk would show here and not only as a slower load; the same
    # dataset with whitespace between its tokens goes through the walk
    source = generate(GeneratorConfig(n_per_modality=3_000, seed=11))
    path = tmp_path / "data.json"
    save(source, str(path))

    def refuse(path, cfg=None):
        raise AssertionError("walked a file in the saved layout")
    monkeypatch.setattr(dataset, "_walk", refuse)
    fast = load(str(path))
    assert fast == source
    monkeypatch.undo()
    calls = _walk_calls(monkeypatch)
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps(_payload(source), indent=1))
    assert load(str(spaced)) == fast
    assert calls == [str(spaced)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fast.table.arrays(),
                                                          load(str(spaced)).table.arrays()))


def test_saved_bytes_from_a_pipe_load(tmp_path):
    # a pipe is read once, by the walk: a second open would wait for a
    # writer, and the text read before it would be gone
    source = generate(GeneratorConfig(n_per_modality=20, seed=3))
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    result = {}

    def read():
        try:
            result["data"] = load(str(pipe))
        except ParseError as exc:
            result["error"] = exc
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with open(pipe, "wb") as fh:
        fh.write(_saved_layout(_payload(source)).encode())
    reader.join(timeout=30)
    if reader.is_alive():
        with open(pipe, "wb"):
            pass
        reader.join(timeout=30)
        pytest.fail("load opened the pipe twice")
    assert result == {"data": source}


def test_integer_minus_zero_feature_loads_as_positive_zero(tmp_path, monkeypatch):
    # json reads -0 as the integer 0, which the walk stores as 0.0; -0.0 is a
    # float, stored as -0.0; both in the saved layout and with whitespace.
    # `save` writes no integer feature, so the numpy reader takes only -0.0
    source = generate(GeneratorConfig(n_per_modality=2, seed=3))
    payload = _payload(source)
    for token, negative in (("-0", False), ("-0.0", True)):
        for dumps in (_saved_layout, json.dumps):
            payload["records"][4]["features"][6] = 123.25
            text = dumps(payload)
            assert text.count("123.25") == 1
            path = tmp_path / "data.json"
            path.write_text(text.replace("123.25", token))
            calls = _walk_calls(monkeypatch)
            value = load(str(path)).table.features[4, 6]
            monkeypatch.undo()
            assert value == 0.0 and bool(np.signbit(value)) == negative
            assert calls == ([] if dumps is _saved_layout and negative else [str(path)])


def test_load_holds_little_more_than_the_file(tmp_path):
    # the whole-file json.load tree peaked at 3.44 times the file's size; the
    # numpy reader of a file `save` wrote holds the piece buffer, one step's
    # arrays and the columns, which peaked at 1.34 times
    path = tmp_path / "data.json"
    save(generate(GeneratorConfig(n_per_modality=10_000, seed=42)), str(path))
    tracemalloc.start()
    try:
        load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_walk_holds_little_more_than_the_file(tmp_path):
    # the file above with a space after every comma is walked, which holds
    # a piece of text, one block of record dicts and the columns: 1.44 times
    path = tmp_path / "data.json"
    save(generate(GeneratorConfig(n_per_modality=10_000, seed=42)), str(path))
    path.write_bytes(path.read_bytes().replace(b",", b", "))
    tracemalloc.start()
    try:
        load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_save_holds_one_block_of_text(tmp_path):
    # `save` formats at most _SAVE_CELLS floats at a time: from 10,000 to
    # 20,000 records per modality its peak grew by 11 KB (of 1.29 MB), and a
    # row of 20,004 features, written in pieces, peaked at 1.14 MB. The
    # meta blocks are left out: json.dumps holds a str for each feature
    # index that the layout lists, 1.2 MB at this width
    path = str(tmp_path / "data.json")
    peaks = []
    for cfg in (GeneratorConfig(n_per_modality=10_000, seed=42),
                GeneratorConfig(n_per_modality=20_000, seed=42),
                GeneratorConfig(n_per_modality=2, feature_dim=20_004, seed=42)):
        data = dataclasses.replace(generate(cfg), meta={})
        save(data, path)  # the formatter's tables are built once, on first use
        tracemalloc.start()
        try:
            save(data, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 << 10
    assert peaks[2] < peaks[0] + (64 << 10)


def test_records_view_holds_one_block_of_records():
    # the view builds its records one block at a time and keeps none: from
    # 10,000 to 20,000 records per modality the peak of a full iteration grew
    # by 152 bytes (3.5 MB for one block), where the cached tuple grew 13.6 MB
    peaks = []
    for n in (10_000, 20_000):
        data = generate(GeneratorConfig(n_per_modality=n, seed=42))
        tracemalloc.start()
        try:
            for _ in data.records:
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 << 10


def test_generate_holds_the_table_and_one_chunk(monkeypatch):
    # the table is allocated once and each chunk is drawn into its rows: the
    # peak was 1.06 times the table plus one chunk's uniforms, where the
    # per-modality blocks, their concatenation and the last modality's
    # uniforms peaked at 2.56 times
    chunk = 1 << 10
    monkeypatch.setattr(dataset, "_GEN_CHUNK", chunk)
    cfg = GeneratorConfig(n_per_modality=20_000, seed=42)
    tracemalloc.start()
    try:
        data = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(column.nbytes for column in data.table.arrays()) + data.modality.nbytes
    draws = chunk * (11 + cfg.feature_dim) * 8
    assert peak < 1.2 * (table + draws)


def test_generate_builds_no_dense_center_table(tmp_path):
    # a (40000, 20004) memory center table would take 5.96 GiB for a corpus
    # of 6 records; generate adds each record's centers by the sign rule
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from msr.dataset import GeneratorConfig, generate
        data = generate(GeneratorConfig(n_per_modality=2, feature_dim=20004,
                                        n_memory_classes=40000))
        assert data.table.features.shape == (6, 20004), data.table.features.shape
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
