"""Bit-identity parity suite for the inference fast paths.

Every optimisation has the slow reference it replaced in
``tests/oracles/``; these tests pin that fast and slow produce *identical
bits*, not merely close floats:

* ``no_grad`` fused-kernel forwards (LSTM / BiLSTM / Conv1d / MaxPool1d),
* the flattened joint tree traversal (forest + boosting, any ``n_jobs``),
* the zero-copy serving ring + batch-assembly scratch,
* process-parallel dataset generation,
* the numerically stable sigmoid.
"""

import numpy as np
import pytest

from repro.ml.boosting.xgb import GradientBoostingClassifier
from repro.ml.ensemble.forest import RandomForestClassifier
from repro.ml.tree.flat import FlatForest
from repro.nn import BiLSTM, LSTM, Tensor
from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.tensor import no_grad
from repro.serve.batcher import MicroBatcher
from repro.serve.session import StreamSession
from repro.simcluster.sensors import N_GPU_SENSORS
from tests.oracles.nn import (
    _sigmoid, bilstm_forward, conv1d_forward, lstm_forward, maxpool1d_forward,
)
from tests.oracles.trees import boosting_margins, forest_predict_proba
from tests.stubs import MeanSignModel


# ----------------------------------------------------------------------
# no_grad fused-kernel forwards
# ----------------------------------------------------------------------
SHAPES = [(3, 17, 7, 8), (1, 5, 2, 3), (4, 9, 5, 16)]


def _x(n, t, c, seed=0):
    return np.random.default_rng(seed).normal(size=(n, t, c)) \
             .astype(np.float32)


class TestNoGradForwardParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_bit_identical(self, shape, reverse):
        n, t, c, h = shape
        layer = LSTM(c, h, rng=1)
        x = _x(n, t, c)
        ref = lstm_forward(layer, Tensor(x), reverse=reverse).data
        train = layer(Tensor(x), reverse=reverse).data
        with no_grad():
            fast = layer(Tensor(x), reverse=reverse).data
        assert np.array_equal(ref, fast)
        assert np.array_equal(train, fast)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bilstm_bit_identical(self, shape):
        n, t, c, h = shape
        layer = BiLSTM(c, h, rng=2)
        x = _x(n, t, c, seed=1)
        ref = bilstm_forward(layer, Tensor(x)).data
        train = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)
        assert np.array_equal(train, fast)

    @pytest.mark.parametrize("padding", ["valid", "same", 2])
    def test_conv1d_bit_identical(self, padding):
        layer = Conv1d(5, 9, kernel_size=3, padding=padding, rng=3)
        x = _x(4, 20, 5, seed=2)
        ref = conv1d_forward(layer, Tensor(x)).data
        train = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)
        assert np.array_equal(train, fast)

    def test_maxpool_bit_identical(self):
        layer = MaxPool1d(3)
        x = _x(4, 21, 6, seed=3)
        ref = maxpool1d_forward(layer, Tensor(x)).data
        train = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)
        assert np.array_equal(train, fast)

    def test_fast_path_builds_no_graph(self):
        layer = LSTM(4, 6, rng=4)
        with no_grad():
            out = layer(Tensor(_x(2, 7, 4)))
        assert out._parents == ()
        assert not out.requires_grad

    def test_scratch_reuse_does_not_corrupt_earlier_outputs(self):
        # The LSTM reuses per-layer scratch between no_grad calls; outputs
        # must be freshly allocated, never views of that scratch.
        layer = LSTM(3, 5, rng=5)
        a_in, b_in = _x(2, 9, 3, seed=4), _x(2, 9, 3, seed=5)
        with no_grad():
            first = layer(Tensor(a_in)).data
            snapshot = first.copy()
            layer(Tensor(b_in))
        assert np.array_equal(first, snapshot)

    def test_scratch_rebuilds_on_shape_change(self):
        layer = LSTM(3, 5, rng=6)
        with no_grad():
            small = layer(Tensor(_x(1, 4, 3, seed=6))).data
            big = layer(Tensor(_x(5, 11, 3, seed=7))).data
        assert small.shape == (1, 4, 5) and big.shape == (5, 11, 5)

    def test_scratch_not_pickled(self):
        import pickle

        layer = LSTM(3, 5, rng=7)
        with no_grad():
            layer(Tensor(_x(2, 6, 3)))
        assert layer._eval_scratch is not None
        clone = pickle.loads(pickle.dumps(layer))
        assert clone._eval_scratch is None

    @pytest.mark.parametrize("cls", [LSTM, BiLSTM], ids=["lstm", "bilstm"])
    def test_no_grad_scratch_holds_no_bptt_caches(self, cls):
        n, t, c, h = 2, 9, 3, 5
        layer = cls(c, h, rng=8)
        with no_grad():
            layer(Tensor(_x(n, t, c)))
        assert layer._train_scratch is None
        s = layer._eval_scratch
        assert not {"gates", "cells", "tanh_c", "dz"} & s.keys()
        # Only the input and its projection span time; every step writes
        # the same (4, R*N, H) gate buffer and the same cell.
        timed = {k for k, v in s.items()
                 if isinstance(v, np.ndarray) and t in v.shape}
        assert timed == {"xs", "zx"}
        rn = n * (2 if cls is BiLSTM else 1)
        gates, *_views, _c_prev, cell, tanh_c = s["steps"][0]
        assert gates.shape == (4, rn, h)
        for step in s["steps"][1:]:
            assert step[0] is gates
            assert step[5] is cell and step[6] is cell
            assert step[7] is tanh_c


class TestStableSigmoid:
    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            out = _sigmoid(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
        assert out[0] == pytest.approx(0.0, abs=1e-30)
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_matches_naive_form_in_safe_range(self):
        x = np.linspace(-10, 10, 201).astype(np.float32)
        naive = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert np.allclose(_sigmoid(x), naive, atol=1e-6)

    def test_out_buffer(self):
        x = np.array([1.5, -2.0], dtype=np.float32)
        buf = np.empty_like(x)
        res = _sigmoid(x, out=buf)
        assert res is buf
        assert np.array_equal(res, _sigmoid(x))


# ----------------------------------------------------------------------
# Flattened tree-ensemble inference
# ----------------------------------------------------------------------
def _blobs(n, d, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, size=n)
    return centers[y] + rng.normal(size=(n, d)), y


class TestFlatForest:
    @pytest.fixture(scope="class")
    def forest(self):
        X, y = _blobs(250, 10, 6, seed=0)
        y[:3] = 6          # rare class so some bootstraps miss classes
        rf = RandomForestClassifier(n_estimators=20, max_depth=7,
                                    oob_score=True, random_state=1)
        return rf.fit(X, y)

    def test_flat_matches_slow(self, forest):
        Xt, _ = _blobs(400, 10, 6, seed=1)
        assert np.array_equal(forest_predict_proba(forest, Xt),
                              forest.predict_proba(Xt))

    def test_pickle_drops_cache_and_still_matches(self, forest):
        import pickle

        Xt, _ = _blobs(60, 10, 6, seed=3)
        expected = forest.predict_proba(Xt)
        clone = pickle.loads(pickle.dumps(forest))
        assert clone.__dict__.get("_flat_") is None
        assert np.array_equal(expected, clone.predict_proba(Xt))

    def test_feature_mismatch_raises(self, forest):
        with pytest.raises(ValueError, match="features"):
            forest.predict_proba(np.zeros((4, 3)))

    def test_from_trees_rebases_children(self, forest):
        flat = FlatForest.from_trees(forest.estimators_,
                                     classes=forest.classes_)
        sizes = [t.feature_.shape[0] for t in forest.estimators_]
        assert flat.feature_.shape[0] == sum(sizes)
        assert flat.n_trees == len(forest.estimators_)
        internal = flat.feature_ >= 0
        assert (flat.children_left_[internal] >= 0).all()
        assert (flat.children_left_[~internal] == -1).all()
        # Leaf payload rows are the tree distributions lifted onto the
        # ensemble class set.
        assert flat.value_.shape == (sum(sizes), forest.classes_.size)

    def test_boosting_flat_matches_slow(self):
        X, y = _blobs(200, 8, 4, seed=4)
        gb = GradientBoostingClassifier(n_estimators=5, max_depth=3,
                                        random_state=0).fit(X, y)
        Xt, yt = _blobs(150, 8, 4, seed=5)
        assert np.array_equal(boosting_margins(gb, Xt), gb._margins(Xt))
        assert np.array_equal(boosting_margins(gb, Xt, 2), gb._margins(Xt, 2))
        # staged_accuracy accumulates the same margins round by round
        staged = gb.staged_accuracy(Xt, yt)
        assert staged.shape == (5,)
        final = float(np.mean(gb.predict(Xt) == yt))
        assert staged[-1] == pytest.approx(final)


# ----------------------------------------------------------------------
# Zero-copy serving
# ----------------------------------------------------------------------
class TestZeroCopyServing:
    def test_ring_windows_match_raw_stream(self):
        window, hop, total = 24, 6, 24 + 5 * 6
        rng = np.random.default_rng(0)
        stream = rng.normal(size=(total, N_GPU_SENSORS)).astype(np.float32)
        sess = StreamSession(session_id="j", window=window, hop=hop)
        reqs = []
        for start in range(0, total, 7):    # ragged chunks cross the wrap
            reqs.extend(sess.push(stream[start:start + 7]))
        assert [r.sample_index for r in reqs] == [24, 30, 36, 42, 48, 54]
        for req in reqs:
            expected = stream[req.sample_index - window:req.sample_index]
            assert np.array_equal(req.window, expected)
            assert req.window.dtype == np.float32
            assert req.window.flags["C_CONTIGUOUS"]

    def test_snapshots_are_independent_copies(self):
        sess = StreamSession(session_id="j", window=4, hop=2)
        rng = np.random.default_rng(1)
        first = sess.push(rng.normal(size=(4, N_GPU_SENSORS)))[0]
        before = first.window.copy()
        sess.push(rng.normal(size=(6, N_GPU_SENSORS)))
        assert np.array_equal(first.window, before)

    def test_oversized_push_keeps_last_window(self):
        window = 8
        sess = StreamSession(session_id="j", window=window, hop=2)
        rng = np.random.default_rng(2)
        stream = rng.normal(size=(45, N_GPU_SENSORS)).astype(np.float32)
        reqs = sess.push(stream)
        for req in reqs:
            expected = stream[req.sample_index - window:req.sample_index]
            assert np.array_equal(req.window, expected)

    def test_batcher_scratch_is_reused_not_aliased(self):
        model = MeanSignModel()
        batcher = MicroBatcher(model, max_batch=3, max_delay_s=10.0)
        rng = np.random.default_rng(3)

        def req_batch(seed):
            sess = StreamSession(session_id=seed, window=5, hop=5)
            g = np.random.default_rng(seed)
            return sess.push(g.normal(size=(5, N_GPU_SENSORS)))[0]

        batcher.enqueue([req_batch(s) for s in (10, 11, 12)])
        done_a = batcher.flush()
        assert len(done_a) == 3
        scratch_a = batcher._scratch
        labels_a = [c.label for c in done_a]
        expect_a = model.predict(
            np.stack([c.request.window for c in done_a])).tolist()
        assert labels_a == expect_a

        batcher.enqueue([req_batch(s) for s in (20, 21, 22)])
        done_b = batcher.flush()
        assert batcher._scratch is scratch_a       # buffer reused...
        assert [c.label for c in done_a] == labels_a   # ...results stable
        expect_b = model.predict(
            np.stack([c.request.window for c in done_b])).tolist()
        assert [c.label for c in done_b] == expect_b

    def test_scratch_rebuilds_on_geometry_change(self):
        batcher = MicroBatcher(MeanSignModel(), max_batch=2, max_delay_s=10.0)
        small = [np.ones((4, 3), dtype=np.float32)] * 2
        big = [np.ones((6, 3), dtype=np.float32)]
        assert batcher._assemble(small).shape == (2, 4, 3)
        assert batcher._assemble(big).shape == (1, 6, 3)
        assert batcher._scratch.shape == (2, 6, 3)


# ----------------------------------------------------------------------
# Dataset generation
# ----------------------------------------------------------------------
class TestDatagenDeterminism:
    def test_release_independent_of_generation_order(self):
        # Every job draws from its own named seed stream, so generating
        # the plan back to front yields the same release bit for bit.
        from repro.simcluster.cluster import ClusterSimulator, SimulationConfig

        cfg = SimulationConfig(seed=11, trials_scale=0.004,
                               min_jobs_per_class=1)
        jobs, log = ClusterSimulator(cfg).generate()
        sim = ClusterSimulator(cfg)
        backwards = [sim.generate_one(job_id, spec)
                     for job_id, spec in reversed(sim.job_plan())][::-1]
        assert list(log) == [job.record for job in backwards]
        assert len(jobs) == len(backwards)
        for a, b in zip(jobs, backwards):
            assert a.record == b.record
            for ga, gb in zip(a.gpu_series, b.gpu_series):
                assert np.array_equal(ga.data, gb.data)
