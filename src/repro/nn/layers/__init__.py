"""Neural-network layers."""

from repro.nn.layers.linear import Linear
from repro.nn.layers.activation import LeakyReLU
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.convlstm import ConvLSTM1d, segment_sequence
from repro.nn.layers.rnn import LSTM, BiLSTM

__all__ = [
    "Linear",
    "LeakyReLU",
    "Dropout",
    "Conv1d",
    "MaxPool1d",
    "ConvLSTM1d",
    "segment_sequence",
    "LSTM",
    "BiLSTM",
]
