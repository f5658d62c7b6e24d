"""Interpretable extreme multi-label toolkit.

Compress a sparse binary label matrix with a tied-weight non-negative
autoencoder, regress input features onto the latent codes, decode to
ranked label predictions, and explain them through label hierarchies and
local linear surrogates.
"""

from .autoencoder import (AeTrainConfig, EncoderStack, ae_gradient, decode,
                          encode, reconstruction_loss, train_autoencoder)
from .dataio import (ModelContainer, load_dataset, load_label_names,
                     load_model, make_block_dataset, save_dataset,
                     save_label_names, save_model)
from .errors import (ConfigError, DatasetFormatError, ModelFormatError,
                     NonNegativityError, ShapeMismatchError,
                     TrainingDivergedError, XlcError)
from .interpret import (ExplainConfig, Explanation, HierarchyNode, LimeConfig,
                        SurrogateExplanation, explain_prediction,
                        extract_hierarchy, lime_explain, render_hierarchy)
from .matrix import DenseMatrix, LabelMatrix, make_rng
from .nmf import NmfConfig, NmfFactors, nmf_factorize, nmf_objective
from .pipeline import (FeatureMatrix, RankedPrediction, RegressorModel,
                       fit_regressor, ndcg_at_k, precision_at_k,
                       predict_labels, predict_latent, rank_labels,
                       split_rows)

__version__ = "1.0.0"

__all__ = [
    "AeTrainConfig", "ConfigError", "DatasetFormatError", "DenseMatrix",
    "EncoderStack", "ExplainConfig", "Explanation", "FeatureMatrix",
    "HierarchyNode", "LabelMatrix", "LimeConfig", "ModelContainer",
    "ModelFormatError", "NmfConfig", "NmfFactors", "NonNegativityError",
    "RankedPrediction", "RegressorModel", "ShapeMismatchError",
    "SurrogateExplanation", "TrainingDivergedError", "XlcError", "ae_gradient",
    "decode", "encode", "explain_prediction", "extract_hierarchy",
    "fit_regressor", "lime_explain", "load_dataset", "load_label_names",
    "load_model", "make_block_dataset", "make_rng", "ndcg_at_k",
    "nmf_factorize", "nmf_objective", "precision_at_k", "predict_labels",
    "predict_latent", "rank_labels", "reconstruction_loss", "render_hierarchy",
    "save_dataset", "save_label_names", "save_model", "split_rows",
    "train_autoencoder", "__version__",
]
