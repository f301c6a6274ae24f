"""What an EM round recomputes, and what it must not change.

The round's problem-only inputs (``engine_numpy.RoundInvariants``) are
derived once per compiled problem, and the C step and the windowed
reduce accumulate with ``np.add.at``. Both are pure speed changes: every
test here holds the new code to the *bytes* of the expression it
replaced, written out below as the reference.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("numpy")

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.engine_numpy import (
    _scatter_add,
    _seeded_vcc,
    _sigmoid,
    iter_chunks,
    num_unobserved,
    round_invariants,
)
from repro.core.indexing import compile_problem
from repro.core.observation import ObservationMatrix
from repro.core.types import DataItem, ExtractionRecord, SourceKey
from repro.exec.checkpoint import problem_digest
from repro.exec.driver import prior_update, residual_mass
from repro.exec.spill import spill_problem_arrays
from repro.util.logmath import _SIGMOID_CUTOFF

ULP = 2.0**-52


# ----------------------------------------------------------------------
# The replaced expressions, verbatim
# ----------------------------------------------------------------------
def seeded_bincount_vcc(base, entry_coord, entry_weights, num_coords):
    """The C step's old seeded ``bincount``: one seed entry per
    coordinate prepended to the entries."""
    return np.bincount(
        np.concatenate((np.arange(num_coords), entry_coord)),
        weights=np.concatenate(
            (
                np.broadcast_to(
                    np.asarray(base, dtype=np.float64), num_coords
                ),
                entry_weights,
            )
        ),
        minlength=num_coords,
    )


def seeded_bincount_scatter(acc, bins, weights, num_bins):
    """The windowed reduce's old step: the running totals prepended."""
    if acc is None:
        return np.bincount(bins, weights=weights, minlength=num_bins)
    return np.bincount(
        np.concatenate((np.arange(num_bins), bins)),
        weights=np.concatenate((acc, weights)),
        minlength=num_bins,
    )


def masked_prior_update(cfg, prob, posterior, residual, accuracy):
    """Eq. 26 as the driver computed it before its masks were hoisted."""
    p_true = np.zeros(len(prob.coord_source))
    has_triple = prob.coord_triple >= 0
    if posterior.size:
        p_true[has_triple] = posterior[prob.coord_triple[has_triple]]
    has_item = ~has_triple & (prob.coord_item >= 0)
    if residual.size:
        p_true[has_item] = residual[prob.coord_item[has_item]]
    source_accuracy = accuracy[prob.coord_source]
    return np.clip(
        p_true * source_accuracy + (1.0 - p_true) * (1.0 - source_accuracy),
        cfg.prior_floor,
        cfg.prior_ceiling,
    )


def unhoisted_residual_mass(prob, posterior, unobserved):
    if not prob.num_items:
        return np.zeros(0)
    posterior_mass = np.add.reduceat(posterior, prob.item_ptr[:-1])
    return np.where(
        unobserved > 0.0,
        np.maximum(1.0 - posterior_mass, 0.0) / np.maximum(unobserved, 1.0),
        0.0,
    )


def three_branch_sigmoid(x):
    ex = np.exp(-np.abs(np.clip(x, -_SIGMOID_CUTOFF, _SIGMOID_CUTOFF)))
    out = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    out = np.where(x >= _SIGMOID_CUTOFF, 1.0, out)
    return np.where(x <= -_SIGMOID_CUTOFF, 0.0, out)


# ----------------------------------------------------------------------
# In-order accumulation: np.add.at == the seeded bincount, bit for bit
# ----------------------------------------------------------------------
weights_strategy = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def accumulations(draw):
    """``(base, bins, weights, num_bins)``; some bins get one last
    weight that cancels their sequential running sum to within one ULP
    of zero — where the association order decides the sign."""
    num_bins = draw(st.integers(min_value=1, max_value=6))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_bins - 1),
                weights_strategy,
            ),
            max_size=40,
        )
    )
    # + 0.0: a base is a log-odds difference or a bincount sum, never
    # -0.0 (on which a seed of +0.0 and a copy of the base differ).
    base = (
        np.array(draw(st.lists(weights_strategy, min_size=num_bins,
                               max_size=num_bins)))
        + 0.0
        if draw(st.booleans())
        else draw(weights_strategy) + 0.0
    )
    bins = [b for b, _ in entries]
    weights = [w for _, w in entries]
    for target in draw(st.sets(st.integers(0, num_bins - 1))):
        running = float(np.broadcast_to(base, num_bins)[target])
        for b, w in entries:
            if b == target:
                running += w
        nudge = draw(st.sampled_from([-ULP, 0.0, ULP]))
        bins.append(target)
        weights.append(-running * (1.0 + nudge))
    return (
        base,
        np.asarray(bins, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        num_bins,
    )


# The engine-parity regression: a confidence one ULP below 1.0 whose
# vote cancels the absence base to within one ULP of zero.
CANCELLING = (
    -1.0,
    np.array([0, 0, 1], dtype=np.int64),
    np.array([1.0, 0.9999999999999999 - 1.0, 1e-3]),
    2,
)


@settings(max_examples=200, deadline=None)
@given(case=accumulations())
@example(case=CANCELLING)
def test_add_at_c_step_equals_seeded_bincount(case):
    base, bins, weights, num_bins = case
    expected = seeded_bincount_vcc(base, bins, weights, num_bins)
    assert (
        _seeded_vcc(base, bins, weights, num_bins).tobytes()
        == expected.tobytes()
    )


@pytest.mark.parametrize("chunk", [1, 7, None])
@settings(max_examples=100, deadline=None)
@given(case=accumulations())
@example(case=CANCELLING)
def test_windowed_scatter_equals_seeded_bincount(chunk, case):
    _base, bins, weights, num_bins = case

    def windowed(scatter):
        acc = None
        total = len(bins)
        whole = chunk is None or total == 0
        for lo, hi in [(0, total)] if whole else iter_chunks(total, chunk):
            acc = scatter(acc, bins[lo:hi], weights[lo:hi], num_bins)
        return acc

    expected = windowed(seeded_bincount_scatter)
    assert windowed(_scatter_add).tobytes() == expected.tobytes()
    # Every window size also lands on the one whole-array bincount.
    whole = np.bincount(bins, weights=weights, minlength=num_bins)
    assert expected.tobytes() == whole.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_subnormal=True), max_size=50
    )
)
@example(
    values=[0.0, -0.0, _SIGMOID_CUTOFF, -_SIGMOID_CUTOFF, 36.7, -745.0]
)
def test_one_division_sigmoid_equals_three_branch(values):
    x = np.asarray(values, dtype=np.float64)
    assert _sigmoid(x).tobytes() == three_branch_sigmoid(x).tobytes()


# ----------------------------------------------------------------------
# Round invariants: one per problem, rebuilt, never shared
# ----------------------------------------------------------------------
def active_config(**kwargs) -> MultiLayerConfig:
    return MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        min_source_support=3,
        **kwargs,
    )


@pytest.fixture
def observations(synthetic):
    """The synthetic corpus plus one source too small to be estimable,
    so Eq. 26 meets all three cases: a coordinate on a covered triple,
    one on a covered item's uncovered value, and one on an uncovered
    item."""
    extractor = synthetic.records[0].extractor
    covered = synthetic.records[0].item
    lone = SourceKey(("lone-site",))
    extra = [
        ExtractionRecord(
            extractor=extractor, source=lone, item=covered, value="unseen"
        ),
        ExtractionRecord(
            extractor=extractor,
            source=lone,
            item=DataItem("nobody-else", "p"),
            value="v",
        ),
    ]
    return ObservationMatrix.from_records(list(synthetic.records) + extra)


def assert_invariants_of(prob, cfg):
    """The invariants hold exactly what they replace, for ``prob``."""
    invariants = round_invariants(prob)
    assert np.array_equal(
        invariants.claim_source, prob.coord_source[prob.claim_coord]
    )
    assert invariants.conf_total.tobytes() == np.bincount(
        prob.entry_col, weights=prob.entry_conf, minlength=prob.num_cols
    ).tobytes()
    rng = np.random.default_rng(3)
    posterior = rng.random(prob.num_triples)
    accuracy = rng.random(len(prob.sources))
    residual = residual_mass(cfg, prob, posterior)
    assert residual.tobytes() == unhoisted_residual_mass(
        prob, posterior, num_unobserved(cfg, prob.item_num_values)
    ).tobytes()
    assert prior_update(
        cfg, prob, posterior, residual, accuracy
    ).tobytes() == masked_prior_update(
        cfg, prob, posterior, residual, accuracy
    ).tobytes()


def test_invariants_are_built_once_and_kept_on_the_problem(
    observations,
):
    cfg = active_config()
    prob = compile_problem(observations, cfg)
    digest = problem_digest(prob)
    assert prob.invariants is None
    invariants = round_invariants(prob)
    assert round_invariants(prob) is invariants
    # Not part of the problem's identity.
    assert problem_digest(prob) == digest
    assert "invariants" not in repr(prob)
    # Eq. 26 reaches every case: covered triple, item residual, neither.
    assert (prob.coord_triple >= 0).any()
    assert ((prob.coord_triple < 0) & (prob.coord_item >= 0)).any()
    assert ((prob.coord_triple < 0) & (prob.coord_item < 0)).any()
    assert_invariants_of(prob, cfg)


def test_invariants_are_rebuilt_for_spilled_and_recompiled_problems(
    observations, tmp_path
):
    cfg = active_config()
    prob = compile_problem(observations, cfg)
    resident = round_invariants(prob)

    spilled = spill_problem_arrays(prob, tmp_path)
    # Spilled with the problem: the corpus-sized arrays are mapped files.
    assert isinstance(spilled.invariants.claim_source, np.memmap)
    assert isinstance(spilled.invariants.truth_index, np.memmap)
    recompiled = compile_problem(observations, cfg)
    copied = dataclasses.replace(prob)
    for other in (spilled, recompiled, copied):
        assert other.invariants is None or other is spilled
        built = round_invariants(other)
        assert built is not resident
        assert_invariants_of(other, cfg)
        # Computed arrays are the problem's own; the rest view its arrays.
        for name in ("conf_total", "claim_source", "truth_index"):
            assert not np.shares_memory(
                getattr(built, name), getattr(resident, name)
            ), name
        assert np.shares_memory(built.item_starts, other.item_ptr)
        assert built.item_num_values is other.item_num_values
    assert round_invariants(prob) is resident


def test_residual_terms_follow_the_fit_domain_size(observations):
    """One problem may be fitted under several ``n``: the memoised
    unobserved-count terms are per ``n``, never the first fit's."""
    prob = compile_problem(observations, active_config())
    posterior = np.random.default_rng(5).random(prob.num_triples)
    for n in (100, 1, 100, 3):
        cfg = active_config(n=n)
        expected = unhoisted_residual_mass(
            prob, posterior, num_unobserved(cfg, prob.item_num_values)
        )
        assert (
            residual_mass(cfg, prob, posterior).tobytes()
            == expected.tobytes()
        )
