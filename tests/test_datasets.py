"""Unit tests for the three dataset generators."""

import hashlib
from itertools import chain

import pytest

from repro.core.observation import ObservationMatrix
from repro.datasets.kv import KVConfig, generate_kv, iter_kv_record_chunks
from repro.datasets.motivating import (
    EXTRACTIONS,
    KENYA,
    TRUE_PAGE_VALUES,
    USA,
    motivating_example,
)
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.io.jsonl import write_records


class TestMotivating:
    def test_record_count_matches_table_2(self):
        # Count the non-empty cells of Table 2: E1:6, E2:3, E3:7, E4:4, E5:6.
        ex = motivating_example()
        assert len(ex.records) == 26
        assert {len(v) for v in EXTRACTIONS.values()} == {6, 3, 7, 4}

    def test_e1_extracts_all_provided_correctly(self):
        provided = {
            page: value
            for page, value in TRUE_PAGE_VALUES.items()
            if value is not None
        }
        assert EXTRACTIONS["E1"] == provided

    def test_e2_all_extractions_correct(self):
        for page, value in EXTRACTIONS["E2"].items():
            assert TRUE_PAGE_VALUES[page] == value

    def test_e3_adds_false_positive_on_w7(self):
        assert EXTRACTIONS["E3"]["W7"] == KENYA
        assert TRUE_PAGE_VALUES["W7"] is None
        for page, value in EXTRACTIONS["E3"].items():
            if page != "W7":
                assert TRUE_PAGE_VALUES[page] == value

    def test_true_provided_helper(self):
        ex = motivating_example()
        assert ex.true_provided("W1", USA)
        assert not ex.true_provided("W1", KENYA)
        assert not ex.true_provided("W7", KENYA)

    def test_quality_by_key_covers_all_extractors(self):
        ex = motivating_example()
        assert len(ex.quality_by_key()) == 5


class TestSynthetic:
    @pytest.fixture(scope="class")
    def data(self):
        return generate(SyntheticConfig(seed=5))

    def test_sources_and_extractors_counts(self, data):
        assert len(data.true_accuracy) == 10
        assert len(data.true_precision) == 5

    def test_claims_match_config(self, data):
        for claims in data.claims.values():
            assert len(claims) == 100

    def test_empirical_accuracy_near_parameter(self, data):
        for accuracy in data.true_accuracy.values():
            assert accuracy == pytest.approx(0.7, abs=0.15)

    def test_provided_is_truth_for_claims(self, data):
        for source, claims in data.claims.items():
            for item, value in claims:
                assert (source, item, value) in data.provided

    def test_extractor_recall_is_r_times_precision_cubed(self, data):
        # The model's R_e is P(extract the *exact* provided triple), so the
        # empirical ground truth is R * P^3 = 0.5 * 0.512 ~ 0.256.
        for extractor, recall in data.true_recall.items():
            if recall > 0:
                assert recall == pytest.approx(0.256, abs=0.1)

    def test_precision_reflects_component_noise(self, data):
        # P^3 = 0.512 at component precision 0.8.
        values = [p for p in data.true_precision.values() if p > 0]
        assert values
        mean = sum(values) / len(values)
        assert mean == pytest.approx(0.512, abs=0.15)

    def test_deterministic(self):
        a = generate(SyntheticConfig(seed=9))
        b = generate(SyntheticConfig(seed=9))
        assert a.records == b.records

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_sources=0)
        with pytest.raises(ValueError):
            SyntheticConfig(source_accuracy=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(num_false_values=0)


class TestKV:
    def test_corpus_shape(self, kv_small):
        assert len(kv_small.sites) == 60
        assert len(kv_small.systems) == 6
        assert kv_small.campaign.num_records > 1000

    def test_cohorts_present(self, kv_small):
        cohorts = set(kv_small.cohorts().values())
        assert {"gossip", "tail-quality", "mainstream"} <= cohorts

    def test_gossip_sites_popular_but_wrong(self, kv_small):
        accuracy = kv_small.true_site_accuracy
        popularity = kv_small.site_popularity()
        for site in kv_small.sites:
            if site.cohort == "gossip":
                assert accuracy[site.name] < 0.55
                assert popularity[site.name] > 1.0
            if site.cohort == "tail-quality":
                assert accuracy[site.name] > 0.8
                assert popularity[site.name] < 1.0

    def test_triples_per_url_heavy_tail(self, kv_small):
        counts = kv_small.triples_per_url()
        assert counts
        small = sum(1 for c in counts.values() if c < 5)
        # Figure 5: the majority of URLs contribute few triples.
        assert small / len(counts) > 0.3
        assert max(counts.values()) > 20

    def test_pattern_counts_positive(self, kv_small):
        counts = kv_small.triples_per_pattern()
        assert counts
        assert all(c > 0 for c in counts.values())

    def test_gold_labels_subset_of_triples(self, kv_small):
        obs = kv_small.observation()
        labels = kv_small.gold.labeled_triples(obs)
        assert 0 < len(labels) < obs.num_triples
        share_true = sum(1 for v in labels.values() if v) / len(labels)
        assert 0.02 < share_true < 0.9

    def test_type_errors_exist_and_are_labelled_false(self, kv_small):
        errors = kv_small.campaign.type_error_triples
        assert errors
        for item, value in list(errors)[:25]:
            assert kv_small.gold.is_extraction_error(item, value)

    def test_observation_uses_fine_granularity_keys(self, kv_small):
        obs = kv_small.observation()
        source = next(iter(obs.sources()))
        extractor = next(iter(obs.extractors()))
        assert source.level == 3
        assert extractor.level == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KVConfig(num_websites=0)
        with pytest.raises(ValueError):
            KVConfig(gossip_fraction=0.9, tail_quality_fraction=0.8)
        with pytest.raises(ValueError):
            KVConfig(kb_coverage=-0.1)

    def test_determinism(self):
        cfg = KVConfig(num_websites=10, items_per_predicate=10,
                       num_systems=3, seed=2)
        a = generate_kv(cfg)
        b = generate_kv(cfg)
        assert a.campaign.num_records == b.campaign.num_records
        assert a.true_site_accuracy == b.true_site_accuracy


# ----------------------------------------------------------------------
# Generator bytes
# ----------------------------------------------------------------------
#: A small corpus of the e2e benchmark's KV family, with narrow patterns
#: common enough that many fire on some sites and skip others.
PINNED_KV = KVConfig(
    num_websites=60,
    items_per_predicate=30,
    num_systems=16,
    pages_zipf_exponent=0.9,
    claims_zipf_exponent=0.9,
    max_pages_per_site=12,
    max_claims_per_page=120,
    max_patterns_per_system=40,
    broad_pattern_fraction=0.2,
    narrow_affinity_base=0.05,
    seed=13,
)


def digest_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TestGeneratorBytes:
    """Every draw of the generators, in order, pinned by a digest: a
    change that reorders an RNG call or builds a different record moves
    one of these."""

    def test_streamed_kv_jsonl(self, tmp_path):
        path = tmp_path / "kv.jsonl"
        count = write_records(
            chain.from_iterable(iter_kv_record_chunks(PINNED_KV)), path
        )
        assert count == 4793
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9bf58c2d1278f4713f2121fcc35672de3a1283937b5fcec044988fcb43489adf"
        )

    def test_kv_campaign_records_and_site_accuracy(self):
        dataset = generate_kv(PINNED_KV)
        lines = [repr(record) for record in dataset.campaign.records]
        lines += [
            f"{site} {accuracy!r}"
            for site, accuracy in dataset.true_site_accuracy.items()
        ]
        assert len(dataset.campaign.records) == 4793
        assert digest_lines(lines) == (
            "4ab5525adf0c1b2e55b42271516626d44b943d63f3272c8e439478239c61dccf"
        )

    def test_synthetic_claims_and_records(self):
        data = generate(SyntheticConfig(seed=5))
        claims = [
            f"{source!r} {item!r} {value!r}"
            for source, pairs in data.claims.items()
            for item, value in pairs
        ]
        assert digest_lines(claims) == (
            "5fde52debfa6a48e9a047c7e51ec5527a80c5a51ac84c0181171c02211bef74e"
        )
        assert digest_lines(repr(record) for record in data.records) == (
            "20154b6a69027fc1f1dedaf11a2ee0bdd8ab96e912119a30b0b8362dc505ec8e"
        )
