"""Command-line interface.

One binary, four verbs: gen-codebook, encode, decode, and eval (with band,
density, and distinguish subcommands). It runs as the installed wordsteg
script or as python -m wordsteg.cli. Every verb that needs word or n-gram
counts takes --corpus and counts them itself. Each counts only what it
reads: gen-codebook, eval band and eval density read the corpus vocabulary
and count nothing more; encode and eval distinguish count the longer grams
of the messages that hold a codeword, for the covers they drew, and eval
distinguish then reads the vocabulary and counts the bigrams and trigrams
of the messages its observer scores.
Every verb reads the whole corpus it is given. eval density scores each
point with a KL divergence that is always add-one (Laplace) smoothed, and
eval distinguish sizes each secret by --secret-len.
Exit codes: 0 success, 2 usage or I/O problems, 3 insufficient band
occupancy, 4 steganization failure. The script (console_main) flushes
stdout and stderr and then ends the process without interpreter teardown,
so atexit handlers that other code registers do not run; a failed final
flush still exits 120, as Python reports it. main() returns the code to
library callers and ends no process; only argparse's SystemExit (usage
errors, --help, --version) escapes it. A verb parses its list flags
(--bands, --densities) and checks --alphabet, and then --densities,
--trials and --secret-len with evaluate.check_sizes, the one definition of
the rules the experiments apply, before it reads any file; so a bad value
is reported at once, not after a full corpus load; so is a negative --seed
in every verb that takes one, and encode's --secret, checked against the
codebook before the corpus is read. Every artifact written by --out embeds
the seed, the settings, and the tool version, and is written atomically
before anything is printed; rerunning a command with the same inputs and
--seed rewrites the same bytes. Without --seed, gen-codebook and encode
draw one from os.urandom and record it in their file, never on stdout; the
eval verbs default to 0. The three eval verbs print and write their rows
through one function, _report.
Every artifact's settings follow one rule, in _artifact: every flag the
verb parses except --seed, --out, --format and --secret; encode adds the
secret's length, never the secret.
"""

import argparse
import os
import sys

from . import __version__
from .atomic import atomic_open, write_json
from .codebook import (
    DIGITS,
    band_words,
    check_alphabet,
    check_secret,
    format_band,
    load_codebook,
    parse_band,
    save_codebook,
    select_codebook,
)
from .codec import decode, steganize
from .corpus import load_corpus, scrub_message
from .errors import InsufficientBandError, SteganizeError, WordstegError
from .evaluate import (
    build_pairs,
    check_sizes,
    distinguisher_accuracy,
    run_band_experiment,
    run_density_experiment,
)


# Parsed attributes that are not settings: argparse's dispatch, the seed
# (recorded at the artifact's top level), where output goes, and encode's
# secret, which must never reach an artifact.
_NOT_CONFIG = frozenset({"func", "command", "experiment", "seed", "out", "format", "secret"})


def _artifact(args, results, **settings) -> dict:
    """The --out document: its config is every parsed flag outside
    _NOT_CONFIG plus `settings`, so no verb lists its flags a second time."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    return {
        "tool": "wordsteg",
        "tool_version": __version__,
        "seed": args.seed,
        "config": config | settings,
        "results": results,
    }


def _write_csv(handle, rows: list[dict]) -> None:
    """Header plus rows; the columns are the keys of the first row, in order."""
    import csv

    writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _report(args, docs: list[dict]) -> None:
    """Print an eval verb's rows in --format; with --out, write both files,
    then move <out>.csv and <out>.json into place. If the JSON's move fails
    after the CSV's, the new CSV is removed, and an earlier one is lost.
    """
    if args.out is not None:
        csv_path, csv_moved = f"{args.out}.csv", False
        try:
            with atomic_open(f"{args.out}.json") as json_handle:
                write_json(json_handle, _artifact(args, docs))
                with atomic_open(csv_path, newline="") as handle:
                    _write_csv(handle, docs)
                csv_moved = True
        except BaseException:
            if csv_moved:
                os.unlink(csv_path)
            raise
    if args.format == "json":
        write_json(sys.stdout, docs)
    elif args.format == "csv":
        _write_csv(sys.stdout, docs)
    else:
        fields = list(docs[0])
        widths = {f: max(len(f), *(len(str(r[f])) for r in docs)) for f in fields}
        print("  ".join(f.ljust(widths[f]) for f in fields))
        for row in docs:
            print("  ".join(str(row[f]).ljust(widths[f]) for f in fields))


def _seed_arg(text: str) -> int:
    """--seed's type in every verb: a non-negative integer. random.Random
    seeds with the absolute value of an int, so a negative seed would draw
    what its absolute value draws."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _seed(args) -> int:
    """--seed, or if omitted a fresh one, kept in args for the file to record."""
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big")
    return args.seed


def cmd_gen_codebook(args) -> int:
    band = parse_band(args.band)
    check_alphabet(args.alphabet)
    vocabulary = load_corpus(args.corpus).vocabulary
    words = band_words(vocabulary, band)
    codebook = select_codebook(vocabulary, band, args.alphabet, seed=_seed(args), words=words)
    save_codebook(codebook, args.out)
    print(
        f"band={format_band(band)} occupancy={len(words)} "
        f"selected={len(codebook.alphabet)} out={args.out}"
    )
    return 0


def cmd_encode(args) -> int:
    codebook = load_codebook(args.codebook)
    check_secret(args.secret, codebook.alphabet)
    corpus = load_corpus(args.corpus)
    result = steganize(args.secret, codebook, corpus, seed=_seed(args))
    if args.out is not None:
        doc = result._asdict() | {"stego": " ".join(result.stego), "cover": " ".join(result.cover)}
        with atomic_open(args.out) as handle:
            write_json(handle, _artifact(args, doc, secret_len=len(args.secret)))
    print(" ".join(result.stego))
    return 0


def cmd_decode(args) -> int:
    codebook = load_codebook(args.codebook)
    text = " ".join(args.text) if args.text else sys.stdin.read()
    print(decode(scrub_message(text).split(), codebook))
    return 0


def cmd_eval_band(args) -> int:
    bands = [parse_band(b) for b in args.bands.split(",")]
    check_alphabet(args.alphabet)
    check_sizes(args.trials)
    corpus = load_corpus(args.corpus)
    rows = run_band_experiment(
        corpus, bands, alphabet=args.alphabet, trials=args.trials, seed=args.seed
    )
    _report(args, rows)
    return 0


def _parse_density(text: str) -> float:
    """One item of --densities as a float; an item that is no number is
    named with the flag. Its range is check_sizes' rule, checked once every
    item has parsed."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--densities items must be numbers, got {text!r}") from None


def cmd_eval_density(args) -> int:
    densities = [_parse_density(d) for d in args.densities.split(",")]
    check_sizes(args.trials, densities=densities)
    codebook = load_codebook(args.codebook)
    corpus = load_corpus(args.corpus)
    rows = run_density_experiment(
        corpus, codebook, densities, trials=args.trials, seed=args.seed
    )
    _report(args, rows)
    return 0


def cmd_eval_distinguish(args) -> int:
    check_sizes(args.trials, args.secret_len)
    codebook = load_codebook(args.codebook)
    corpus = load_corpus(args.corpus)
    pairs = build_pairs(
        corpus,
        codebook,
        trials=args.trials,
        seed=args.seed,
        secret_len=args.secret_len,
    )
    accuracy = distinguisher_accuracy(corpus, pairs, seed=args.seed)
    doc = {
        "pairs": len(pairs),
        "correct": round(accuracy * len(pairs)),
        "accuracy": accuracy,
        "advantage": abs(2.0 * accuracy - 1.0),
    }
    _report(args, [doc])
    return 0


def _add_eval_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="line-delimited corpus file")
    parser.add_argument("--seed", type=_seed_arg, default=0)
    parser.add_argument("--out", help="base path; writes <out>.json and <out>.csv")
    parser.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="stdout format for the summary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordsteg",
        description="Hide short symbol strings in natural-language cover messages.",
    )
    parser.add_argument(
        "--version", action="version", version=f"wordsteg {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-codebook", help="draw codewords from a frequency band")
    p.add_argument("--corpus", required=True, help="line-delimited corpus file")
    p.add_argument("--band", required=True, help="inclusive band, e.g. 4-6 or 14+")
    p.add_argument("--alphabet", default=DIGITS)
    p.add_argument("--seed", type=_seed_arg, help="default: a fresh seed, recorded in --out")
    p.add_argument("--out", required=True, help="where to write the codebook JSON")
    p.set_defaults(func=cmd_gen_codebook)

    p = sub.add_parser("encode", help="hide a secret in a drawn cover message")
    p.add_argument("--secret", required=True, help="symbol string, e.g. 21")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=_seed_arg, help="default: a fresh seed, recorded in --out")
    p.add_argument("--out", help="also write the full result as JSON")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="extract the secret from stego text")
    p.add_argument("--codebook", required=True)
    p.add_argument("text", nargs="*", help="stego text; omit to read stdin")
    p.set_defaults(func=cmd_decode)

    ev = sub.add_parser("eval", help="measurement harness")
    ev_sub = ev.add_subparsers(dest="experiment", required=True)

    p = ev_sub.add_parser("band", help="decode errors per codeword frequency band")
    _add_eval_common(p)
    p.add_argument("--bands", default="4-6,6-8,8-12,14+", help="comma-separated bands")
    p.add_argument("--alphabet", default=DIGITS)
    p.add_argument("--trials", type=int, default=2000, help="rounds per band")
    p.set_defaults(func=cmd_eval_band)

    p = ev_sub.add_parser("density", help="distribution shift per codeword density")
    _add_eval_common(p)
    p.add_argument("--codebook", required=True)
    p.add_argument(
        "--densities", default="0.0,0.05,0.1,0.2,0.3", help="comma-separated targets"
    )
    p.add_argument("--trials", type=int, default=500, help="covers per density point")
    p.set_defaults(func=cmd_eval_density)

    p = ev_sub.add_parser(
        "distinguish", help="accuracy of a plausibility-threshold observer"
    )
    _add_eval_common(p)
    p.add_argument("--codebook", required=True)
    p.add_argument("--trials", type=int, default=200, help="number of pairs")
    p.add_argument("--secret-len", type=int, default=2)
    p.set_defaults(func=cmd_eval_distinguish)

    return parser


# Exit code per handled error; every other handled error exits 2.
_EXIT_CODES = {InsufficientBandError: 3, SteganizeError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WordstegError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


def console_main() -> None:
    """Run main() as the wordsteg script, flush stdout and stderr, and end
    the process there with os._exit, skipping interpreter teardown.

    Module teardown and the final garbage collections cost each call 13-15
    ms after main() had returned (Python 3.11, 2-vCPU Linux VM); os._exit
    ends it in about 2 ms. So atexit handlers registered by other code do
    not run. If a flush raises, the process exits through SystemExit
    instead, and Python's own shutdown flushes again and reports the failure
    with status 120, as it always has. An exception that escapes main(),
    argparse's SystemExit included, propagates as before. main() itself is
    unchanged for library callers.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    console_main()
