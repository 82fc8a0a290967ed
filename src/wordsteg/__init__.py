"""wordsteg: hide short symbol strings inside natural-looking cover messages.

The toolkit counts n-gram statistics over a message corpus, draws a secret
codebook from a chosen word-frequency band, inserts one codeword per secret
symbol into a cover at the least-conspicuous positions, and measures how
decodable, dense, and detectable the results are.
"""

__version__ = "0.1.0"

from .codebook import (
    DIGITS,
    Band,
    Codebook,
    band_words,
    format_band,
    load_codebook,
    parse_band,
    save_codebook,
    select_codebook,
)
from .codec import (
    DEFAULT_MAX_ATTEMPTS,
    StegoResult,
    contains_codeword,
    decode,
    insert_codewords,
    insertion_score,
    steganize,
)
from .corpus import Corpus, load_corpus, scrub_message
from .errors import (
    CodebookValidationError,
    EmptyCorpusError,
    FormatError,
    InsufficientBandError,
    SteganizeError,
    WordstegError,
)
from .evaluate import (
    BandExperimentRow,
    DensityPoint,
    build_pairs,
    derive_seed,
    distinguisher_accuracy,
    kl_divergence,
    run_band_experiment,
    run_density_experiment,
    smoothed_distribution,
)
from .ngram import NGramModel, build_model

__all__ = [
    "__version__",
    "Band",
    "BandExperimentRow",
    "Codebook",
    "CodebookValidationError",
    "Corpus",
    "DEFAULT_MAX_ATTEMPTS",
    "DIGITS",
    "DensityPoint",
    "EmptyCorpusError",
    "FormatError",
    "InsufficientBandError",
    "NGramModel",
    "SteganizeError",
    "StegoResult",
    "WordstegError",
    "band_words",
    "build_model",
    "build_pairs",
    "contains_codeword",
    "decode",
    "derive_seed",
    "distinguisher_accuracy",
    "format_band",
    "insert_codewords",
    "insertion_score",
    "kl_divergence",
    "load_codebook",
    "load_corpus",
    "parse_band",
    "run_band_experiment",
    "run_density_experiment",
    "save_codebook",
    "scrub_message",
    "select_codebook",
    "smoothed_distribution",
    "steganize",
]
