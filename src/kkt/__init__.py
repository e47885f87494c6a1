"""Dialogue multi-choice reading comprehension with knowledge retrieval and
key-turn selection, built on a small numpy autodiff core. The package
exposes its modules plus `RunConfig` and `InputError`."""

from . import attention, checkpoint, cli, data, keyturns, knowledge, model, optim, tensor, tokenizer, training
from .tokenizer import InputError
from .training import RunConfig
