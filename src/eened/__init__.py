"""Convolutional-transformer encoder for binary seizure detection from
single-channel EEG segments, on a minimal reverse-mode autodiff core."""
