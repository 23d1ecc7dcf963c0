"""Parity references: slow, readable implementations that production fast
paths are tested against.

* :mod:`tests.oracles.drift` — the per-row drift detector;
* :mod:`tests.oracles.nn` — the per-op nn layers (``Linear``, ``Conv1d``,
  ``MaxPool1d``, ``LSTM``, ``BiLSTM``) and :func:`~tests.oracles.nn.use_reference`,
  which rebinds a model's layers to them;
* :mod:`tests.oracles.trees` — the per-tree forest and boosting
  prediction loops.
"""
