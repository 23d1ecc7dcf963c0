"""From-scratch neural-network stack (NumPy autograd).

Replaces the PyTorch dependency of the paper's RNN baselines with only what
those models reach: a reverse-mode autograd engine (:mod:`repro.nn.tensor`),
modules and layers (Linear, LSTM / BiLSTM with fused BPTT, Conv1d,
MaxPool1d, Dropout, LeakyReLU), log-softmax with the NLL loss, Adam with
the paper's cyclical cosine LR schedule, and a Trainer implementing early
stopping on validation accuracy.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.module import Module, Parameter
from repro.nn.functional import dropout, log_softmax, nll_loss
from repro.nn.layers import LSTM, BiLSTM, Conv1d, Dropout, LeakyReLU, Linear, MaxPool1d
from repro.nn.loss import NLLLoss
from repro.nn.optim import Adam, CyclicCosineLR
from repro.nn.training import Trainer, TrainingHistory

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "log_softmax",
    "nll_loss",
    "dropout",
    "Linear",
    "LeakyReLU",
    "Dropout",
    "Conv1d",
    "MaxPool1d",
    "LSTM",
    "BiLSTM",
    "NLLLoss",
    "Adam",
    "CyclicCosineLR",
    "Trainer",
    "TrainingHistory",
]
