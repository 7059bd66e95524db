"""Multi-task response generation with emotion recognition heads.

A desk-scale encoder-decoder transformer trained jointly on one generation
task and several classification tasks with weighted per-task losses, plus
beam-search decoding and the dialogue evaluation metrics, all on numpy.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, EmogenError, NumericError
from .tensor import Tensor, no_grad, softmax
from .losses import classification_nll, label_smoothed_nll
from .optim import AdamW, clip_global_norm
from .text import Vocab, TokenSeq, build_vocab, encode, pad_batch, shift_right, tokenize
from .model import (
    ModelBundle,
    ModelConfig,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .data import TaskSpec, gen_synthetic, load_task, split_811, subsample
from .trainer import BatchTicket, LossReport, TrainPlan, build_schedule, train
from .decoding import BeamConfig, Hypothesis, beam_search, generate_file
from .metrics import MetricsReport, avg_len, bleu, classification_scores, distinct_n

__all__ = [
    "AdamW",
    "BatchTicket",
    "BeamConfig",
    "ConfigError",
    "DataError",
    "EmogenError",
    "Hypothesis",
    "LossReport",
    "MetricsReport",
    "ModelBundle",
    "ModelConfig",
    "NumericError",
    "TaskSpec",
    "Tensor",
    "TokenSeq",
    "TrainPlan",
    "Vocab",
    "avg_len",
    "beam_search",
    "bleu",
    "build_schedule",
    "build_vocab",
    "classification_nll",
    "classification_scores",
    "clip_global_norm",
    "distinct_n",
    "encode",
    "gen_synthetic",
    "generate_file",
    "init_parameters",
    "label_smoothed_nll",
    "load_checkpoint",
    "load_task",
    "no_grad",
    "pad_batch",
    "parameter_count",
    "save_checkpoint",
    "shift_right",
    "softmax",
    "split_811",
    "subsample",
    "tokenize",
    "train",
]
