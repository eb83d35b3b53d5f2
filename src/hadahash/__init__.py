"""Balanced orthogonal codebooks, hash function training, and bit-packed
Hamming retrieval."""

from .codebook import (Codebook, ProjectionMatrix, build_codebook,
                       hadamard_transform, load_codebook, sample_projection,
                       save_codebook, select_order, sylvester, target_batch)
from .data import (FeatureSet, LabelSet, Split, load_features,
                   load_labels, load_split, make_synthetic_blobs,
                   save_features, save_labels, save_split, split_protocol)
from .model import (DenseLayer, HashNetwork, LossBreakdown, NetworkSpec,
                    backward, bce_loss, build_network, cross_entropy_loss,
                    forward, hadamard_loss, hash_layer, load_network,
                    save_network, sgd_step)
from .retrieval import (BinaryCodeSet, EvalReport, RankedList, binarize,
                        encode_rows, evaluate, load_codes, lsh_codes,
                        pack_codes, save_codes, search, unpack_codes)
from .trainer import (NumericError, TrainConfig, TrainHistory, learning_rate,
                      train)
from .analysis import (ablate, activation_histogram, bit_balance,
                       codebook_gram, confusion_matrix, lambda_sweep)

__version__ = "0.1.0"
