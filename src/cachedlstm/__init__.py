"""Grouped-memory recurrent document classifiers on a small numpy autodiff tape.

The clstm cell splits its memory into K groups whose update rates are
squashed into disjoint bands, so low-numbered groups retain information
across hundreds of steps while high-numbered ones track recent tokens.
Plain RNN, LSTM, coupled-gate LSTM, and a bag-of-words encoder are included
as baselines, along with training, evaluation, and serialization tooling
and a command-line interface (``cachedlstm --help``).
"""

from .autodiff import ShapeError, Tape, Var, backward, grad_check
from .cells import (
    CellParams,
    CellState,
    CifgParams,
    ClstmParams,
    ForgetRates,
    bind_params,
    cifg_step,
    clstm_step,
    init_params,
    lstm_step,
    recurrence,
    zero_state,
)
from .data import (
    Batch,
    Document,
    EmbeddingMatrix,
    Vocab,
    build_vocab,
    convert_external,
    init_embeddings,
    load_embeddings,
    make_batches,
    pad_batch,
    read_corpus,
    synth_needle,
    tokenize,
    write_corpus,
)
from .encoder import (
    ClassifierParams,
    EncodedSequence,
    EncoderConfig,
    cbow_encode,
    classify,
    doc_representation,
    encode_bidirectional,
    encode_forward,
    init_classifier,
)
from .evaluation import (
    DecileReport,
    Metrics,
    SweepReport,
    accuracy,
    convergence_log,
    evaluate,
    length_decile_report,
    mse,
)
from .model import DocModel, ModelConfig, build_model
from .serialize import load_container, load_model, save_container, save_model
from .training import (
    AdagradState,
    EpochStats,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    adagrad_update,
    fit,
    group_sweep,
    objective,
    train_epoch,
)

__version__ = "0.1.0"
