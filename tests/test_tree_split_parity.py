"""The one-search-per-node CART fit equals the per-feature reference.

``DecisionTreeClassifier.fit`` searches all of a node's candidate features
in one ``(n, m, k)`` block; ``tests/oracles/trees.py::cart_fit`` runs one
search per candidate feature.  Every fitted array must match exactly:
features, thresholds, children and leaf values.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.oracles.trees import cart_fit
from repro.ml.ensemble import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.tree import decision_tree

FITTED = ("feature_", "threshold_", "children_left_", "children_right_",
          "value_")


def assert_same_tree(tree, ref):
    for name in FITTED:
        assert np.array_equal(getattr(tree, name), getattr(ref, name)), name


fit_case = st.fixed_dictionaries(
    {
        "n": st.integers(1, 90),
        "p": st.integers(1, 9),
        "n_classes": st.integers(1, 28),
        "min_samples_leaf": st.integers(1, 6),
        "min_samples_split": st.integers(2, 12),
        "max_depth": st.one_of(st.none(), st.integers(1, 8)),
        "max_features": st.one_of(st.none(), st.just("sqrt"),
                                  st.integers(1, 9)),
        # "integer": few distinct values, so most positions tie
        "values": st.sampled_from(["normal", "integer"]),
        "constant_columns": st.integers(0, 3),
        # None keeps the module cap; small caps split every node's block
        # into feature chunks
        "max_block": st.sampled_from([None, 1, 40, 700]),
        "seed": st.integers(0, 2**32 - 1),
    }
)


@settings(max_examples=150, deadline=None)
@given(fit_case)
def test_fit_equals_per_feature_reference(case):
    rng = np.random.default_rng(case["seed"])
    n, p = case["n"], case["p"]
    if case["values"] == "normal":
        X = rng.normal(size=(n, p))
    else:
        X = rng.integers(0, 3, size=(n, p)).astype(np.float64)
    X[:, :case["constant_columns"]] = 1.5
    y = rng.integers(0, case["n_classes"], size=n)
    max_features = case["max_features"]
    if isinstance(max_features, int):
        max_features = min(max_features, p)
    params = dict(max_depth=case["max_depth"],
                  min_samples_split=case["min_samples_split"],
                  min_samples_leaf=case["min_samples_leaf"],
                  max_features=max_features)
    ref = cart_fit(DecisionTreeClassifier(**params, random_state=case["seed"]),
                   X, y)
    cap = case["max_block"] or decision_tree._MAX_BLOCK
    with mock.patch.object(decision_tree, "_MAX_BLOCK", cap):
        tree = DecisionTreeClassifier(**params, random_state=case["seed"])
        tree.fit(X, y)
    assert_same_tree(tree, ref)


def test_chunked_search_matches_one_block():
    """A cap below one feature's ``(n, k)`` slab searches a feature at a
    time and still picks the same splits."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 4, size=(120, 12)).astype(np.float64)
    y = rng.integers(0, 9, size=120)
    whole = DecisionTreeClassifier(random_state=0).fit(X, y)
    with mock.patch.object(decision_tree, "_MAX_BLOCK", 1):
        chunked = DecisionTreeClassifier(random_state=0).fit(X, y)
    assert_same_tree(chunked, whole)
    assert_same_tree(whole, cart_fit(DecisionTreeClassifier(random_state=0),
                                     X, y))


def test_threshold_of_adjacent_floats_keeps_the_split():
    """The midpoint of two adjacent floats can round up to the upper one;
    the threshold then falls back to the lower value so that ``<=`` sends
    exactly the scored left side left."""
    lo = np.nextafter(1.0, 2.0)           # odd last mantissa bit
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi          # the rounding this guards
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.threshold_[0] == lo
    np.testing.assert_array_equal(tree.predict(X), y)
    assert np.isfinite(tree.value_).all()


def test_threshold_does_not_overflow():
    big = np.finfo(np.float64).max
    X = np.array([[big / 2], [big]])
    tree = DecisionTreeClassifier().fit(X, np.array([0, 1]))
    assert tree.threshold_[0] == big / 2
    np.testing.assert_array_equal(tree.predict(X), [0, 1])


def test_rf_cov_on_the_benchmark_release_equals_the_reference(tmp_path):
    """RF-cov as ``serve-rf-monitored`` fits it at seed 3: the
    ``trials_scale=0.02`` release through a 4-shard store, the
    ``60-random-1`` split, 50 trees, here with the out-of-bag score."""
    from repro.data import build_challenge_suite
    from repro.models import make_rf_cov
    from repro.simcluster import ClusterSimulator, SimulationConfig
    from repro.store import TelemetryStore

    jobs, _ = ClusterSimulator(
        SimulationConfig(seed=3, trials_scale=0.02)).generate()
    with TelemetryStore(tmp_path, n_shards=4) as store:
        store.ingest(jobs)
    with TelemetryStore(tmp_path) as store:
        dataset = store.labelled_dataset(540)
        split = build_challenge_suite(
            dataset, seed=3, names=("60-random-1",))["60-random-1"]

    def fit():
        model = make_rf_cov(n_estimators=50, random_state=3, oob_score=True)
        return model.fit(split.X_train, split.y_train).steps[-1][1]

    forest = fit()
    with mock.patch.object(DecisionTreeClassifier, "fit", cart_fit):
        ref = fit()
    assert isinstance(ref, RandomForestClassifier)
    assert len(forest.estimators_) == len(ref.estimators_) == 50
    for tree, ref_tree in zip(forest.estimators_, ref.estimators_):
        assert_same_tree(tree, ref_tree)
    assert forest.oob_score_ == ref.oob_score_
