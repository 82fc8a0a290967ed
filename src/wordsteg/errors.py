"""Exception types shared across the package."""


class WordstegError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyCorpusError(WordstegError):
    """Loading produced zero usable messages."""


class FormatError(WordstegError):
    """A codebook file is not UTF-8 JSON, or a version or field is missing or mistyped."""


class CodebookValidationError(WordstegError, ValueError):
    """A codebook, or the band and alphabet of its draw, break an invariant."""


class InsufficientBandError(WordstegError):
    """The frequency band holds fewer distinct words than the alphabet needs."""


class SteganizeError(WordstegError):
    """No cover, or no stego, after `attempts` cover draws. Raised by
    CoverPool.draw on an empty pool (0 attempts; reached from eval band and
    every draw_cover caller), by draw_cover when all MAX_ATTEMPTS covers it
    drew held a codeword, and by embed when a stego fails its round-trip
    check (reached from steganize and from build_pairs).
    """

    def __init__(self, attempts: int, reason: str):
        self.attempts = attempts
        super().__init__(f"{reason} after {attempts} attempts")
