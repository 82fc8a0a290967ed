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
occupancy, 4 steganization failure. A verb parses its list flags (--bands,
--densities) before it reads any file, so a typo in one is reported at once,
not after a full corpus load. Every artifact written by --out embeds the
seed, the settings, and the tool version, and is written atomically before
anything is printed; rerunning a command with the same inputs rewrites the
same bytes except for the created_utc stamp. The three eval verbs print and
write their rows through one function, _report, and their settings are every
flag they parse except --seed, --out and --format; encode records its
settings by hand, with the secret's length and never the secret.
"""

import argparse
import json
import os
import sys

from . import __version__
from .atomic import atomic_open
from .codebook import (
    DIGITS,
    band_words,
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
    distinguisher_accuracy,
    run_band_experiment,
    run_density_experiment,
)


def _artifact(seed: int | None, config: dict, results) -> dict:
    # Imported here, as csv is in _write_csv, so that a verb that writes no
    # artifact (decode, encode without --out) never loads it.
    from datetime import datetime, timezone

    return {
        "tool": "wordsteg",
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def _write_json(handle, doc: dict) -> None:
    json.dump(doc, handle, sort_keys=True, indent=2)
    handle.write("\n")


def _write_csv(handle, rows: list[dict]) -> None:
    """Header plus rows; the columns are the keys of the first row, in order."""
    import csv

    writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


# Parsed attributes that are not settings: argparse's dispatch, the seed
# (recorded at the artifact's top level), and where output goes.
_NOT_CONFIG = frozenset({"func", "command", "experiment", "seed", "out", "format"})


def _report(args, docs: list[dict]) -> None:
    """Print an eval verb's rows in --format; with --out, first write
    <out>.csv and then <out>.json, each atomically; if either write fails,
    the run leaves neither new file behind.

    The artifact's config is every parsed flag outside _NOT_CONFIG, so each
    eval flag reaches its artifact without a second list of flags. encode
    does not report through here: its config is written out by hand because
    --secret must never reach an artifact.
    """
    if args.out is not None:
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        with atomic_open(f"{args.out}.csv", newline="") as handle:
            _write_csv(handle, docs)
        try:
            with atomic_open(f"{args.out}.json") as handle:
                _write_json(handle, _artifact(args.seed, config, docs))
        except BaseException:
            os.unlink(f"{args.out}.csv")
            raise
    if args.format == "json":
        _write_json(sys.stdout, docs)
    elif args.format == "csv":
        _write_csv(sys.stdout, docs)
    else:
        fields = list(docs[0])
        widths = {f: max(len(f), *(len(str(r[f])) for r in docs)) for f in fields}
        print("  ".join(f.ljust(widths[f]) for f in fields))
        for row in docs:
            print("  ".join(str(row[f]).ljust(widths[f]) for f in fields))


def cmd_gen_codebook(args) -> int:
    band = parse_band(args.band)
    vocabulary = load_corpus(args.corpus).vocabulary
    occupancy = len(band_words(vocabulary, band))
    codebook = select_codebook(vocabulary, band, tuple(args.alphabet), seed=args.seed)
    save_codebook(codebook, args.out)
    print(
        f"band={format_band(band)} occupancy={occupancy} "
        f"selected={len(codebook.alphabet)} out={args.out}"
    )
    return 0


def cmd_encode(args) -> int:
    codebook = load_codebook(args.codebook)
    corpus = load_corpus(args.corpus)
    result = steganize(args.secret, codebook, corpus, seed=args.seed)
    if args.out is not None:
        config = {
            "codebook": args.codebook,
            "corpus": args.corpus,
            "secret_len": len(args.secret),
        }
        with atomic_open(args.out) as handle:
            _write_json(handle, _artifact(args.seed, config, result.to_doc()))
    print(" ".join(result.stego))
    return 0


def cmd_decode(args) -> int:
    codebook = load_codebook(args.codebook)
    text = " ".join(args.text) if args.text else sys.stdin.read()
    symbols = decode(scrub_message(text).split(), codebook)
    print("".join(symbols))
    return 0


def cmd_eval_band(args) -> int:
    bands = [parse_band(b) for b in args.bands.split(",")]
    corpus = load_corpus(args.corpus)
    rows = run_band_experiment(
        corpus, bands, alphabet=tuple(args.alphabet), trials=args.trials, seed=args.seed
    )
    _report(args, rows)
    return 0


def _parse_density(text: str) -> float:
    """One item of --densities; a bad item is named with the flag."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--densities items must be numbers, got {text!r}") from None


def cmd_eval_density(args) -> int:
    densities = [_parse_density(d) for d in args.densities.split(",")]
    codebook = load_codebook(args.codebook)
    corpus = load_corpus(args.corpus)
    rows = run_density_experiment(
        corpus, codebook, densities, trials=args.trials, seed=args.seed
    )
    _report(args, rows)
    return 0


def cmd_eval_distinguish(args) -> int:
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
    parser.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--alphabet", default="".join(DIGITS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="where to write the codebook JSON")
    p.set_defaults(func=cmd_gen_codebook)

    p = sub.add_parser("encode", help="hide a secret in a drawn cover message")
    p.add_argument("--secret", required=True, help="symbol string, e.g. 21")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--alphabet", default="".join(DIGITS))
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
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
