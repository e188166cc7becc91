import json
import re

import numpy as np
import pytest

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

SMALL = GeneratorConfig(n_per_modality=60, seed=5)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


class TestConfigValidation:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError, match="n_per_modality"):
            GeneratorConfig(n_per_modality=0).validate()

    def test_label_noise_below_half(self):
        cfg = GeneratorConfig(label_noise={"visual": 0.5, "auditory": 0.1, "tactile": 0.1})
        with pytest.raises(ConfigError, match="label_noise"):
            cfg.validate()

    def test_feature_dim_must_fit_layout(self):
        with pytest.raises(ConfigError, match="feature_dim"):
            GeneratorConfig(feature_dim=4).validate()

    def test_missing_modality_noise(self):
        with pytest.raises(ConfigError, match="label_noise"):
            GeneratorConfig(label_noise={"visual": 0.1}).validate()

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
            ma = many.by_modality(m)
            for i in range(5):
                assert fa[i].features == ma[i].features
                assert fa[i].trust == ma[i].trust

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
        recs = ds.by_modality("visual")
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
