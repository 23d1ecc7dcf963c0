"""Parity references: slow, readable implementations that production fast
paths are tested against.

* :mod:`tests.oracles.covariance` — the ``einsum`` covariance reduction;
* :mod:`tests.oracles.drift` — the per-row drift detector;
* :mod:`tests.oracles.nn` — the per-op nn layers (``Linear``, ``Conv1d``,
  ``MaxPool1d``, ``LSTM``, ``BiLSTM``) and :func:`~tests.oracles.nn.use_reference`,
  which rebinds a model's layers to them;
* :mod:`tests.oracles.trees` — the per-tree forest and boosting
  prediction loops;
* :mod:`tests.oracles.simcluster` — the per-job release generator, one
  :func:`scipy.signal.lfilter` call per AR(1) noise and thermal lag.
"""
