"""Dialogue multi-choice reading comprehension with knowledge retrieval and
key-turn selection, built on a small numpy autodiff core."""

from .attention import EncoderParams, MhaParams, encode, mha, self_attention
from .data import Dataset, SyntheticBundle, gen_synthetic, load_dataset, write_bundle
from .keyturns import KeyTurnSet, NliHead, RelevanceScore, score_turn, select_key_turns, train_nli_head
from .knowledge import (
    Fact,
    FactEmbedding,
    KnowledgeStore,
    KnowledgeTriple,
    PosTagger,
    load_kg,
    rank_triples,
    rewrite_triple,
    tag_content_words,
)
from .model import (
    ABLATIONS,
    DialogueExample,
    EncodedPair,
    KktParams,
    KktPipeline,
    dual_coattention,
    encode_pair,
    forward,
    refine,
)
from .tensor import Tensor
from .tokenizer import Tokenizer
from .training import EvalReport, RunConfig, ablation_sweep, evaluate, evaluate_pipeline, train

__version__ = "0.1.0"
