"""Warm-start incremental scoring: FittedKBT.update vs a cold refit."""

from collections import Counter

import pytest

from repro.core import multi_layer
from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    MultiLayerConfig,
)
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.datasets.kv import KVConfig, generate_kv

from multi_layer_reference import fit_python

#: The warm-vs-cold agreement the incremental path must deliver for a
#: well-supported new website (the acceptance tolerance).
TOLERANCE = 0.02


def page_records(website, url, extractor, items, value_fn):
    return [
        ExtractionRecord(
            extractor=ExtractorKey((extractor,)),
            source=page_source(website, "p", url),
            item=DataItem(s, "p"),
            value=value_fn(s),
        )
        for s in items
    ]


def small_corpus():
    records = []
    subjects = [f"s{i}" for i in range(12)]
    for i, site in enumerate(("a.com", "b.com", "c.com", "good.com")):
        records.extend(
            page_records(site, f"{site}/p", f"e{i % 2}", subjects,
                         lambda s: f"true-{s}")
        )
    records.extend(
        page_records("bad.com", "bad.com/p", "e0", subjects,
                     lambda s: f"false-{s}")
    )
    return records


@pytest.fixture(params=["python", "numpy"])
def engine(request, monkeypatch):
    """Which fit the test's models run: ``numpy`` is the library's array
    engine; ``python`` swaps the dict oracle in where
    ``MultiLayerModel.fit`` calls the array engine, with the same
    arguments."""
    if request.param == "python":
        monkeypatch.setattr(multi_layer, "fit_numpy", fit_python)
    return request.param


class TestUpdateBasics:
    def test_new_site_gets_scored(self, engine):
        fitted = KBTEstimator().fit(small_corpus())
        new = page_records("new.com", "new.com/p", "e0",
                           [f"s{i}" for i in range(12)],
                           lambda s: f"true-{s}")
        updated = fitted.update(new)
        scores = updated.website_scores()
        assert "new.com" in scores
        assert scores["new.com"].score > 0.9

    def test_old_scores_unchanged(self, engine):
        fitted = KBTEstimator().fit(small_corpus())
        before = fitted.website_scores()
        new = page_records("new.com", "new.com/p", "e0",
                           [f"s{i}" for i in range(12)],
                           lambda s: f"true-{s}")
        after = fitted.update(new).website_scores()
        for site, score in before.items():
            assert after[site].score == score.score

    def test_original_fit_untouched(self):
        fitted = KBTEstimator().fit(small_corpus())
        sites_before = set(fitted.website_scores())
        num_records = fitted.observations.num_records
        fitted.update(
            page_records("new.com", "new.com/p", "e0", ["s0", "s1"],
                         lambda s: f"true-{s}")
        )
        assert set(fitted.website_scores()) == sites_before
        assert fitted.observations.num_records == num_records

    def test_empty_update_is_identity(self):
        fitted = KBTEstimator().fit(small_corpus())
        assert fitted.update([]) is fitted

    def test_update_accumulates(self):
        """A second update sees the records folded in by the first."""
        fitted = KBTEstimator().fit(small_corpus())
        subjects = [f"s{i}" for i in range(12)]
        one = fitted.update(
            page_records("one.com", "one.com/p", "e0", subjects,
                         lambda s: f"true-{s}")
        )
        two = one.update(
            page_records("two.com", "two.com/p", "e1", subjects,
                         lambda s: f"true-{s}")
        )
        scores = two.website_scores()
        assert "one.com" in scores and "two.com" in scores

    def test_bad_sweeps_rejected(self):
        fitted = KBTEstimator().fit(small_corpus())
        with pytest.raises(ValueError, match="sweeps"):
            fitted.update(small_corpus()[:1], sweeps=0)

    def test_update_roundtrips_through_artifact(self, tmp_path):
        fitted = KBTEstimator().fit(small_corpus())
        path = fitted.save(tmp_path / "model.kbt")
        loaded = FittedKBT.load(path)
        new = page_records("new.com", "new.com/p", "e0",
                           [f"s{i}" for i in range(12)],
                           lambda s: f"true-{s}")
        direct = fitted.update(new).website_scores()
        via_artifact = loaded.update(new).website_scores()
        assert direct.keys() == via_artifact.keys()
        for site in direct:
            assert via_artifact[site].score == pytest.approx(
                direct[site].score, abs=1e-9
            )


class TestFrozenParameters:
    def test_freeze_extractor_quality_config(self, engine):
        """The config-level freeze pins every extractor at its default."""
        config = MultiLayerConfig(freeze_extractor_quality=True)
        result = KBTEstimator(config=config).fit(small_corpus()).result
        qualities = set(result.extractor_quality.values())
        assert len(qualities) == 1  # nothing moved off the shared default

    def test_frozen_engines_agree(self):
        config = MultiLayerConfig(freeze_extractor_quality=True)
        observations = ObservationMatrix.from_records(small_corpus())
        py = fit_python(config, observations, None, None, None, None)
        np_ = multi_layer.MultiLayerModel(config).fit(observations)
        for source, accuracy in py.source_accuracy.items():
            assert np_.source_accuracy[source] == pytest.approx(
                accuracy, abs=1e-9
            )

    def test_selective_freeze_via_fit(self, engine):
        """frozen_extractors pins named columns, others keep learning."""
        from repro.core.multi_layer import MultiLayerModel

        records = small_corpus()
        observations = ObservationMatrix.from_records(records)
        config = MultiLayerConfig()
        free = MultiLayerModel(config).fit(observations)
        frozen_key = ExtractorKey(("e0",))
        pinned = MultiLayerModel(config).fit(
            observations, frozen_extractors={frozen_key}
        )
        default = pinned.extractor_quality[frozen_key]
        assert default.recall == config.default_recall
        assert free.extractor_quality[frozen_key].recall != default.recall
        other = ExtractorKey(("e1",))
        assert pinned.extractor_quality[other] != default

    def test_frozen_sources_pin_accuracy(self, engine):
        from repro.core.multi_layer import MultiLayerModel

        records = small_corpus()
        observations = ObservationMatrix.from_records(records)
        config = MultiLayerConfig()
        source = page_source("bad.com", "p", "bad.com/p")
        pinned = MultiLayerModel(config).fit(
            observations,
            initial_source_accuracy={source: 0.42},
            frozen_sources={source},
        )
        assert pinned.source_accuracy[source] == 0.42
        free = MultiLayerModel(config).fit(
            observations, initial_source_accuracy={source: 0.42}
        )
        assert free.source_accuracy[source] != 0.42


class TestKVAgreement:
    """Warm-start vs cold refit on the synthetic KV corpus."""

    @pytest.fixture(scope="class")
    def setting(self):
        corpus = generate_kv(KVConfig(
            num_websites=600,
            items_per_predicate=60,
            num_systems=16,
            broad_pattern_fraction=0.8,
            bad_system_fraction=0.0625,
            seed=13,
        ))
        records = list(corpus.campaign.records)
        counts = Counter(r.source.website for r in records)
        # Hold out well-supported mainstream sites (indexes past the
        # gossip/tail cohorts) amounting to ~1% of the corpus — the "new
        # website onboarding" scenario the incremental path targets.
        mainstream = [
            site for site in counts
            if int(site[4:8]) >= 100 and 100 <= counts[site] <= 300
        ]
        held = set(sorted(mainstream, key=lambda s: counts[s])[-3:])
        base = [r for r in records if r.source.website not in held]
        new = [r for r in records if r.source.website in held]
        config = MultiLayerConfig(
            absence_scope=AbsenceScope.ACTIVE,
            engine="numpy",
            quality_damping=0.5,
            convergence=ConvergenceConfig(max_iterations=8, tolerance=1e-4),
        )
        estimator = KBTEstimator(config=config, min_triples=5.0)
        return estimator, base, new, held, records

    def test_new_sites_match_cold_refit(self, setting):
        estimator, base, new, held, records = setting
        warm = estimator.fit(base).update(new, sweeps=2).website_scores()
        cold = estimator.fit(records).website_scores()
        checked = 0
        for site in held:
            if site not in cold:
                continue
            assert site in warm, f"{site} unscored by the warm update"
            assert warm[site].score == pytest.approx(
                cold[site].score, abs=TOLERANCE
            ), f"{site}: warm {warm[site].score} vs cold {cold[site].score}"
            checked += 1
        assert checked >= 2
