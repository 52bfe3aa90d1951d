"""Zero-shot and generalized zero-shot classification on precomputed
features, with class semantics built from word vectors of class names
and of generated class descriptions, fused by learned affine layers."""

from .autodiff import ParamStore, Tensor
from .datasets import (
    FeatureSet,
    RunConfig,
    SplitSpec,
    SynthConfig,
    load_features,
    load_run_config,
    load_split,
    synth_dataset,
)
from .embed_zsl import embed_loss, train_embed
from .evaluation import EvalReport, borda_count, evaluate_run, harmonic_mean, per_class_top1
from .fusion import ClassSemantics, FusionParams, init_fusion
from .gen_zsl import GanTrainer, gradient_penalty, synthesize
from .llm_client import DescriptionCache, EndpointConfig, build_prompt, fetch_description
from .wordvec import WordVectorTable, embed_text, load_word_vectors

__all__ = [
    "ParamStore",
    "Tensor",
    "FeatureSet",
    "RunConfig",
    "SplitSpec",
    "SynthConfig",
    "load_features",
    "load_run_config",
    "load_split",
    "synth_dataset",
    "embed_loss",
    "train_embed",
    "EvalReport",
    "borda_count",
    "evaluate_run",
    "harmonic_mean",
    "per_class_top1",
    "ClassSemantics",
    "FusionParams",
    "init_fusion",
    "GanTrainer",
    "gradient_penalty",
    "synthesize",
    "DescriptionCache",
    "EndpointConfig",
    "build_prompt",
    "fetch_description",
    "WordVectorTable",
    "embed_text",
    "load_word_vectors",
]
