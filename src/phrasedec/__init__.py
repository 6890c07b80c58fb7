"""Phrase-level speculative Jacobi decoding engine with acceptance-rate oracles."""

from .core import (
    LOG_FLOOR,
    AllZeroWeights,
    CategoricalDistribution,
    DrafterZeroProb,
    InvalidWeight,
    TokenId,
    TokenSequence,
    log_prob_ratio,
    log_ratio,
    normalize,
    sample,
)
from .decoder import (
    DecodeMetrics,
    DegenerateResidual,
    JacobiWindow,
    LibraryVocabMismatch,
    NonTermination,
    VerifyConfig,
    decode,
    phrase_acceptance_score,
    verify_phrase,
    verify_token,
    verify_window,
)
from .models import (
    ConditionalModel,
    MarkovModel,
    PerturbedDrafter,
    TopKModel,
    ancestral_sample,
    batched_conditionals,
    load_markov,
    random_markov,
    save_markov,
)
from .phrase_lib import (
    EmptyCorpus,
    InvalidToken,
    MergeRule,
    Phrase,
    PhraseLibrary,
    UnknownSymbol,
    build_library,
    cooccurrence_stats,
    expand_symbol,
    load_library,
    match_prefix,
    save_library,
)
from .theory import (
    AcceptanceReport,
    EnumerationTooLarge,
    alpha,
    alpha_phr_exact,
    alpha_phr_mc,
    alpha_seq,
    min_inequality_check,
    proposition1_sweep,
)

__version__ = "0.1.0"
