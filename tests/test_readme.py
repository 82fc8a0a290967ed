import io
import random
import re
import shlex
from pathlib import Path

import pytest

from wordsteg.cli import main
from wordsteg.codebook import band_words, select_codebook
from wordsteg.codec import steganize
from wordsteg.corpus import Corpus

from synthcorpus import synth_lines

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def messages_dir(tmp_path, monkeypatch):
    # The corpus the README names: synth_lines(800, 7, 900) in messages.txt.
    lines = synth_lines(n_messages=800, seed=7, vocab_size=900)
    (tmp_path / "messages.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_library_example_runs_as_written(messages_dir):
    # The README's one ```python block, run unedited, so the example cannot
    # drift from the library.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})


def _console_commands() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for every `$` line of the ```console
    blocks, in README order; a command may continue over lines ending in `\\`."""
    commands = []
    for block in re.findall(r"```console\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        assert block.startswith("$ "), block  # no output line without its command
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ "):
                command = line[2:]
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                commands.append((command, []))
            else:
                commands[-1][1].append(line)
    return commands


def _take_redirect(argv: list[str], operator: str) -> str | None:
    """Remove `operator file` from argv and return the file, if it is there."""
    if operator not in argv:
        return None
    at = argv.index(operator)
    target = argv[at + 1]
    del argv[at : at + 2]
    return target


def test_shown_cli_output_is_what_the_command_prints(messages_dir, capsys, monkeypatch):
    # Each command runs through main in one directory, in README order, so a
    # later command reads the files an earlier one wrote. Trailing spaces,
    # which the table format pads with and an editor strips, are ignored.
    commands = _console_commands()
    assert commands
    for command, shown in commands:
        argv = shlex.split(command)
        assert argv.pop(0) == "wordsteg", command
        stdin, stdout = _take_redirect(argv, "<"), _take_redirect(argv, ">")
        if stdin is not None:
            text = (messages_dir / stdin).read_text(encoding="utf-8")
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if stdout is not None:
            (messages_dir / stdout).write_text(out, encoding="utf-8")
            out = ""
        assert [line.rstrip() for line in out.splitlines()] == shown, command


def _holds_in_order(message, stego):
    words = iter(stego)
    return all(word in words for word in message)


def test_threat_model_figures():
    # The seeded figures of the README's "Threat model", on the quick-start
    # corpus and codebook.
    lines = synth_lines(n_messages=800, seed=7, vocab_size=900)
    corpus = Corpus(lines)
    codebook = select_codebook(corpus.vocabulary, (14, None), seed=7)
    assert len(band_words(corpus.vocabulary, (14, None))) == 74
    # An observer who holds the corpus traces every output to its cover: the
    # one longest corpus line that the stego message holds in order.
    messages = {tuple(line.split()) for line in lines}
    for seed in range(1, 101):
        result = steganize("2024", codebook, corpus, seed=seed)
        stego = result.stego
        held = [m for m in messages if len(m) < len(stego) and _holds_in_order(m, stego)]
        longest = max(map(len, held))
        assert [m for m in held if len(m) == longest] == [result.cover], seed
    # A fixed seed draws one cover whatever the secret.
    rng = random.Random(1)
    secrets = ("".join(rng.choices("0123456789", k=rng.randint(1, 8))) for _ in range(100))
    assert len({steganize(secret, codebook, corpus, seed=11).cover for secret in secrets}) == 1
