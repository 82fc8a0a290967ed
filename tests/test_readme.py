import re
from pathlib import Path

from synthcorpus import synth_lines

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written(tmp_path, monkeypatch):
    # The README's one ```python block, run unedited against a synthetic
    # messages.txt, so the example cannot drift from the library.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = synth_lines(n_messages=800, seed=7, vocab_size=900)
    (tmp_path / "messages.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
