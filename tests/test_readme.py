"""README's code blocks against the code they describe."""
import argparse
import math
import re
from pathlib import Path

from itofourier import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_cli_block_names_the_parsers_subcommands():
    scope = {}
    exec(_block("## Library quick start", "python"), scope)
    assert math.isfinite(scope["value"])
    assert 0.0 < scope["err2"] < 0.5  # the kernel's squared norm is 1/2

    listed = set(re.findall(r"^itofourier ([a-z]\S*)", _block("## CLI", "sh"), re.M))
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)
