"""Exception types shared across the package."""


class WordstegError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyCorpusError(WordstegError):
    """Loading produced zero usable messages."""


class FormatError(WordstegError):
    """A codebook file is not UTF-8 JSON, or a version or field is missing or mistyped."""


class CodebookValidationError(WordstegError):
    """A codebook parses but breaks an invariant, e.g. duplicate codewords."""


class InsufficientBandError(WordstegError):
    """The frequency band holds fewer distinct words than the alphabet needs."""


class SteganizeError(WordstegError):
    """steganize failed after `attempts` cover draws: no acceptable cover
    was found within the budget, or the stego failed its round-trip check.
    """

    def __init__(self, attempts: int, reason: str):
        self.attempts = attempts
        super().__init__(f"{reason} after {attempts} attempts")
