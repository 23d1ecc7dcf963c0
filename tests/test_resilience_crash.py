"""Crash-safety tests: checkpoint/resume bit-identity (in-process injected
faults and real SIGKILLed subprocesses) and registry survival of killed
writers, including warm-LRU coherence."""

import pickle
import signal
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.training import (
    TrainingCheckpoint,
    collect_forward_rng_states,
    load_checkpoint,
    restore_forward_rng_states,
    save_checkpoint,
)
from repro.resilience import FaultSpec, InjectedFault, inject
from repro.resilience.bench import (
    _StubModel,
    _build_trainer,
    _crash_registry_worker,
    _crash_training_worker,
    _run_to_sigkill,
)
from repro.serve.registry import ModelRegistry

# Tiny synthetic problem: 24 samples, 6 timesteps, 3 sensors, 3 classes,
# batch 8 -> 3 batches/epoch.  Small enough for subprocess SIGKILL tests
# on a single-core runner.
_N, _T, _D, _K = 24, 6, 3, 3
_BATCHES_PER_EPOCH = 3


def _tiny_payload(max_epochs=5, **overrides):
    """Trainer payload + data for repro.resilience.bench._build_trainer."""
    rng = np.random.default_rng(0)
    payload = {
        "n_sensors": _D,
        "seq_len": _T,
        "n_classes": _K,
        "hidden_size": 4,
        "seed": 7,
        "lr": 5e-3,
        "cycle_len": 3,
        "batch_size": 8,
        "max_epochs": max_epochs,
        "patience": 10,
        "X_train": rng.standard_normal((_N, _T, _D)).astype(np.float32),
        "y_train": rng.integers(0, _K, _N),
        "X_val": rng.standard_normal((12, _T, _D)).astype(np.float32),
        "y_val": rng.integers(0, _K, 12),
    }
    payload.update(overrides)
    return payload


def _data(payload):
    return (payload["X_train"], payload["y_train"],
            payload["X_val"], payload["y_val"])


def _interrupted_then_resumed(payload, kill_hits, ckpt, *,
                              checkpoint_every=1):
    """Fit with in-process injected kills at ``kill_hits``; resume after
    each; return the final (stitched) history and surviving trainer."""
    trainer = _build_trainer(payload)
    for hit in kill_hits:
        with inject(FaultSpec("trainer.mid_epoch", at_hit=hit, mode="raise")):
            with pytest.raises(InjectedFault):
                if ckpt.is_file():
                    trainer.resume(str(ckpt), *_data(payload),
                                   checkpoint_every=checkpoint_every)
                else:
                    trainer.fit(*_data(payload), checkpoint_path=str(ckpt),
                                checkpoint_every=checkpoint_every)
        trainer = _build_trainer(payload)  # fresh process equivalent
    if ckpt.is_file():
        history = trainer.resume(str(ckpt), *_data(payload),
                                 checkpoint_every=checkpoint_every)
    else:  # killed before the first checkpoint ever landed
        history = trainer.fit(*_data(payload), checkpoint_path=str(ckpt),
                              checkpoint_every=checkpoint_every)
    return history, trainer


def _hit(kill_epoch, start_epoch=0, batch=2):
    """trainer.mid_epoch hit count for dying in ``batch`` of ``kill_epoch``."""
    return (kill_epoch - start_epoch - 1) * _BATCHES_PER_EPOCH + batch


class TestCheckpointFile:
    def _checkpoint(self, payload, ckpt_path):
        trainer = _build_trainer(payload)
        trainer.fit(*_data(payload), checkpoint_path=str(ckpt_path))
        return load_checkpoint(ckpt_path)

    def test_round_trip(self, tmp_path):
        payload = _tiny_payload(max_epochs=3)
        ckpt = self._checkpoint(payload, tmp_path / "t.ckpt")
        assert ckpt.epoch == 3
        assert len(ckpt.history.epochs) == 3
        assert set(ckpt.rng_states) == {"shuffle", "forward"}
        assert "t" in ckpt.optimizer_state  # Adam step count captured
        assert ckpt.scheduler_state["step_count"] == 3

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        payload = _tiny_payload(max_epochs=2)
        path = tmp_path / "t.ckpt"
        self._checkpoint(payload, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a pickle")
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_wrong_payload_type_rejected(self, tmp_path):
        body = pickle.dumps(["not", "a", "checkpoint"])
        header = {"magic": "repro-checkpoint-v1", "repro_version": "x",
                  "crc32": zlib.crc32(body), "body": body}
        path = tmp_path / "t.ckpt"
        path.write_bytes(pickle.dumps(header))
        with pytest.raises(ValueError, match="TrainingCheckpoint"):
            load_checkpoint(path)

    def test_forward_rng_mismatch_raises(self):
        payload = _tiny_payload()
        model = _build_trainer(payload).model
        states = collect_forward_rng_states(model)
        assert states  # the LSTM classifier has at least one dropout RNG
        with pytest.raises(KeyError, match="RNG module mismatch"):
            restore_forward_rng_states(model, {"bogus.module": {}})


class TestResumeBitIdentical:
    @pytest.mark.parametrize("kill_epoch", [2, 4])
    def test_single_preemption(self, tmp_path, kill_epoch):
        payload = _tiny_payload()
        fault_free = _build_trainer(payload)
        history_free = fault_free.fit(*_data(payload))

        history, survivor = _interrupted_then_resumed(
            payload, [_hit(kill_epoch)], tmp_path / "t.ckpt"
        )
        assert history_free.matches(history)
        for key, value in fault_free.model.state_dict().items():
            np.testing.assert_array_equal(value, survivor.model.state_dict()[key])

    def test_kill_before_first_checkpoint(self, tmp_path):
        # Dying in epoch 1 leaves no checkpoint; a fresh fit must still
        # reproduce the fault-free history (all state rebuilds from seeds).
        payload = _tiny_payload()
        history_free = _build_trainer(payload).fit(*_data(payload))
        history, _ = _interrupted_then_resumed(
            payload, [_hit(1)], tmp_path / "t.ckpt"
        )
        assert history_free.matches(history)

    def test_chained_preemptions(self, tmp_path):
        # Die at epoch 2, resume, die again at epoch 4, resume, finish.
        payload = _tiny_payload(max_epochs=6)
        history_free = _build_trainer(payload).fit(*_data(payload))
        # Second kill happens inside a resume from epoch 2's checkpoint.
        hits = [_hit(2), _hit(4, start_epoch=2)]
        history, _ = _interrupted_then_resumed(
            payload, hits, tmp_path / "t.ckpt"
        )
        assert history_free.matches(history)

    def test_sparse_checkpointing(self, tmp_path):
        # checkpoint_every=2: a kill in epoch 5 resumes from epoch 4's
        # checkpoint and replays nothing it shouldn't.
        payload = _tiny_payload(max_epochs=6)
        history_free = _build_trainer(payload).fit(*_data(payload))
        history, _ = _interrupted_then_resumed(
            payload, [_hit(5)], tmp_path / "t.ckpt", checkpoint_every=2
        )
        assert history_free.matches(history)
        assert load_checkpoint(tmp_path / "t.ckpt").epoch == 6  # stop epoch

    @settings(max_examples=6, deadline=None)
    @given(kill_epoch=st.integers(2, 5), batch=st.integers(1, 3))
    def test_resume_reproduces_history_property(self, tmp_path_factory,
                                                kill_epoch, batch):
        # Property: wherever the kill lands (any epoch, any batch), the
        # stitched history equals the uninterrupted one bit for bit.
        payload = _tiny_payload()
        history_free = _build_trainer(payload).fit(*_data(payload))
        workdir = tmp_path_factory.mktemp("resume-prop")
        history, _ = _interrupted_then_resumed(
            payload, [_hit(kill_epoch, batch=batch)], workdir / "t.ckpt"
        )
        assert history_free.matches(history)


class TestSigkillSubprocess:
    def test_training_sigkilled_then_resumed_matches(self, tmp_path):
        # A real SIGKILL (no unwinding, no atexit) mid-epoch 3; the parent
        # resumes from the surviving checkpoint.
        payload = _tiny_payload()
        history_free = _build_trainer(payload).fit(*_data(payload))

        ckpt = tmp_path / "t.ckpt"
        child = dict(payload)
        child.update({"checkpoint_path": str(ckpt), "resume": False,
                      "kill_hit": _hit(3)})
        assert _run_to_sigkill(_crash_training_worker, child, timeout_s=120.0)
        assert load_checkpoint(ckpt).epoch == 2

        survivor = _build_trainer(payload)
        history = survivor.resume(str(ckpt), *_data(payload))
        assert history_free.matches(history)

    def test_save_model_sigkilled_mid_write_serves_prior_version(self, tmp_path):
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.register("clf", _StubModel(1, b"a" * 2048), version=1)

        died = _run_to_sigkill(_crash_registry_worker, {
            "root": str(root), "op": "register", "name": "clf", "version": 2,
            "point": "persist.mid_write", "model": _StubModel(2, b"b" * 2048),
        }, timeout_s=120.0)
        assert died

        fresh = ModelRegistry(root)  # restarted server's view
        assert fresh.versions("clf") == [1]
        assert fresh.get("clf").version == 1  # no ValueError from a torn file
        # The kill left tmp litter, which readers must not mistake for a
        # version file.
        assert any(p.suffix == ".tmp" for p in (root / "clf").iterdir())

    def test_set_active_sigkilled_before_flip_keeps_old_pointer(self, tmp_path):
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.register("clf", _StubModel(1), version=1)
        registry.register("clf", _StubModel(2), version=2)
        registry.set_active("clf", 1)

        died = _run_to_sigkill(_crash_registry_worker, {
            "root": str(root), "op": "set_active", "name": "clf", "version": 2,
            "point": "registry.before_active_flip",
        }, timeout_s=120.0)
        assert died

        fresh = ModelRegistry(root)
        assert fresh.active_version("clf") == 1
        assert fresh.get_active("clf").version == 1

    def test_warm_lru_coherent_across_writer_crash(self, tmp_path):
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.register("clf", _StubModel(1, b"a" * 2048), version=1)
        registry.set_active("clf", 1)
        assert registry.get_active("clf").version == 1  # warm the LRU
        assert registry.warm_count == 1

        assert _run_to_sigkill(_crash_registry_worker, {
            "root": str(root), "op": "register", "name": "clf", "version": 2,
            "point": "persist.mid_write", "model": _StubModel(2, b"b" * 2048),
        }, timeout_s=120.0)

        # The crashed writer never produced v2, so the warm copy of v1 is
        # still the truth: served from cache, no disk re-read, no error.
        hits_before = registry.hits
        assert registry.get_active("clf").version == 1
        assert registry.hits == hits_before + 1

        # Once a healthy writer lands v2 and promotes it, the cache keyed
        # by (name, version) serves the new model — no stale v1 answer.
        registry.register("clf", _StubModel(2, b"b" * 2048), version=2)
        registry.set_active("clf", 2)
        assert registry.get_active("clf").version == 2
        # v1 stays warm under its own key, coherent for pinned readers.
        assert registry.get("clf", 1).version == 1


class TestStateDictRoundTrips:
    def _model_pair(self):
        payload = _tiny_payload()
        return _build_trainer(payload).model, _build_trainer(payload).model

    def test_named_modules_prefixes_cover_parameters(self):
        model, _ = self._model_pair()
        names = dict(model.named_modules())
        assert names[""] is model
        for pname in dict(model.named_parameters()):
            owner = pname.rsplit(".", 1)[0] if "." in pname else ""
            assert owner in names

    def test_adam_round_trip_preserves_trajectory(self):
        from repro.nn.optim.adam import Adam

        model_a, model_b = self._model_pair()
        opt_a = Adam(model_a.parameters(), lr=1e-2)
        opt_b = Adam(model_b.parameters(), lr=1e-2)
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal(p.data.shape).astype(p.data.dtype)
                 for p in opt_a.params]

        def step(opt):
            for p, g in zip(opt.params, grads):
                p.grad = g.copy()
            opt.step()

        step(opt_a)
        opt_b.load_state_dict(opt_a.state_dict())
        for pa, pb in zip(opt_a.params, opt_b.params):
            pb.data = pa.data.copy()
        step(opt_a)
        step(opt_b)
        for pa, pb in zip(opt_a.params, opt_b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_optimizer_moment_count_mismatch_rejected(self):
        from repro.nn.optim.adam import Adam
        from repro.nn.module import Parameter

        opt = Adam([Parameter(np.zeros(3, dtype=np.float32))], lr=1e-3)
        state = opt.state_dict()
        state["m"] = state["m"] + state["m"]
        state["v"] = state["v"] + state["v"]
        with pytest.raises(ValueError, match="mismatch"):
            opt.load_state_dict(state)

    def test_scheduler_round_trip_resumes_cosine_position(self):
        from repro.nn.module import Parameter
        from repro.nn.optim.adam import Adam
        from repro.nn.optim.schedulers import CyclicCosineLR

        def fresh():
            opt = Adam([Parameter(np.zeros(2, dtype=np.float32))], lr=1e-2)
            return opt, CyclicCosineLR(opt, cycle_len=4)

        opt_a, sched_a = fresh()
        for _ in range(3):
            sched_a.step()
        opt_b, sched_b = fresh()
        sched_b.load_state_dict(sched_a.state_dict())
        opt_b.load_state_dict(opt_a.state_dict())
        # Bit-identical continuation, including the np.float64 lr type
        # (NEP 50: coercing to Python float shifts float32 math by 1 ulp).
        assert type(opt_b.lr) is type(opt_a.lr)
        assert sched_a.step() == sched_b.step()
        assert opt_a.lr == opt_b.lr

    def test_sigkill_exitcode_contract(self):
        # _run_to_sigkill distinguishes a SIGKILL death from a clean exit;
        # guard the sign convention the crash tests above rely on.
        assert -signal.SIGKILL == -9
