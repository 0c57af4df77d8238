"""README's command-line examples, run through cli.main and compared with
the output README shows.

verify, ct and gamma-check must match byte for byte once timings are
masked.  oracle and chain print floats whose last digits depend on the
summation order of the platform's numpy, so their output is compared token
by token, with floats at rel 1e-9 or abs 1e-12.
"""

import re
import shlex
from pathlib import Path

import pytest

from ct_forge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

_TIMINGS = [(re.compile(r"\(\d+(?:\.\d+)? ms\)"), "(… ms)"),
            (re.compile(r'"elapsed_ms": [0-9.e+-]+'), '"elapsed_ms": …')]
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_FLOAT_OUTPUT = {"oracle", "chain"}


def _examples():
    """(argv, expected output lines, {file name: lines}) for each
    `ct-forge ...` line of README's code blocks; a `cat NAME` line
    introduces the body of a file that the block's commands read."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S):
        files, lines = {}, None
        for line in block.splitlines():
            if line.startswith("ct-forge "):
                lines = []
                examples.append((shlex.split(line)[1:], lines, files))
            elif line.startswith("cat "):
                lines = files.setdefault(line.split(maxsplit=1)[1], [])
            elif lines is not None:
                lines.append(line)
    return examples


EXAMPLES = _examples()


def _mask(text: str) -> str:
    for pattern, mask in _TIMINGS:
        text = pattern.sub(mask, text)
    return text


def _tokens_match(actual: str, expected: str) -> bool:
    if _NUMBER.split(actual) != _NUMBER.split(expected):
        return False
    return all(float(a) == pytest.approx(float(e), rel=1e-9, abs=1e-12)
               for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)))


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _, _ in EXAMPLES} == {
        "verify", "ct", "oracle", "chain", "gamma-check"}


@pytest.mark.parametrize("argv,lines,files", EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_example(capsys, tmp_path, monkeypatch, argv, lines, files):
    for name, body in files.items():
        (tmp_path / name).write_text("\n".join(body) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    main(argv)
    actual = capsys.readouterr().out
    expected = "\n".join(lines).strip("\n") + "\n"
    if argv[0] in _FLOAT_OUTPUT:
        assert _tokens_match(actual, expected), actual
    else:
        assert _mask(actual) == _mask(expected)
