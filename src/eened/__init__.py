"""Convolutional-transformer encoder for binary seizure detection from
single-channel EEG segments, on a minimal reverse-mode autodiff core."""

from .config import ModelConfig, TrainConfig
from .data import (DataError, Dataset, batches, load_dataset, make_toy_dataset,
                   normalize, read_csv, split)
from .encoder import (ConvModuleParams, EncoderBlockParams, MhsaParams,
                      PwffParams, conv_module_forward, encoder_block_forward,
                      mhsa_forward, pwff_forward)
from .model import (CheckpointError, EenedModel, load_checkpoint,
                    model_forward_batch, model_init, named_parameters,
                    save_checkpoint)
from .rng import SeedStream
from .tensor import (ConfigError, ContractError, ParamStore, ShapeError, Tape,
                     Tensor, backward)
# the train() entry point stays at eened.train.train: re-exporting it here
# would shadow the eened.train submodule attribute with the function
from .train import (AdamState, EpochLog, Metrics, adam_step, bce_loss,
                    evaluate, gradcheck, gradcheck_suite, init_adam)

__all__ = [
    "ModelConfig", "TrainConfig",
    "DataError", "Dataset", "batches", "load_dataset", "make_toy_dataset",
    "normalize", "read_csv", "split",
    "ConvModuleParams", "EncoderBlockParams", "MhsaParams", "PwffParams",
    "conv_module_forward", "encoder_block_forward", "mhsa_forward",
    "pwff_forward",
    "CheckpointError", "EenedModel", "load_checkpoint", "model_forward_batch",
    "model_init", "named_parameters", "save_checkpoint",
    "SeedStream",
    "ConfigError", "ContractError", "ParamStore", "ShapeError", "Tape",
    "Tensor", "backward",
    "AdamState", "EpochLog", "Metrics", "adam_step", "bce_loss", "evaluate",
    "gradcheck", "gradcheck_suite", "init_adam",
]

__version__ = "0.1.0"
