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

    def __init__(self, band: tuple[int, int | None], needed: int, found: int):
        self.band = band
        self.needed = needed
        self.found = found
        lo, hi = band
        label = f"{lo}+" if hi is None else f"{lo}-{hi}"
        super().__init__(
            f"frequency band {label} holds {found} candidate words, need {needed}"
        )


class SteganizeError(WordstegError):
    """No acceptable cover was found within the attempt budget."""

    def __init__(self, attempts: int, reason: str = "no acceptable cover"):
        self.attempts = attempts
        super().__init__(f"{reason} after {attempts} attempts")
