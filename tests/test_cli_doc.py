"""docs/CLI.md must match what the argparse parser actually renders.

The committed CLI reference is generated (``python -m
repro.experiments.cli_doc``); any flag added or changed without
regenerating the doc fails here with a diff-style message.
"""

from __future__ import annotations

import difflib
from pathlib import Path

from repro.experiments.cli import EXPERIMENTS, EXTRA_COMMANDS
from repro.experiments.cli_doc import EXPERIMENT_DESCRIPTIONS, render_cli_doc

DOC = Path(__file__).resolve().parent.parent / "docs" / "CLI.md"


def test_cli_doc_matches_parser():
    committed = DOC.read_text(encoding="utf-8")
    rendered = render_cli_doc()
    if committed != rendered:
        diff = "\n".join(difflib.unified_diff(
            committed.splitlines(), rendered.splitlines(),
            fromfile="docs/CLI.md (committed)",
            tofile="docs/CLI.md (rendered from the parser)",
            lineterm="", n=2))
        raise AssertionError(
            "docs/CLI.md is stale; regenerate with\n"
            "  PYTHONPATH=src python -m repro.experiments.cli_doc "
            "> docs/CLI.md\n" + diff)


def test_every_experiment_is_documented():
    assert set(EXPERIMENT_DESCRIPTIONS) == (
        set(EXPERIMENTS) | set(EXTRA_COMMANDS))


def test_doc_mentions_every_flag():
    """Belt and braces: no option string is missing from the table."""
    import argparse

    committed = DOC.read_text(encoding="utf-8")
    from repro.experiments.cli import build_parser
    for action in build_parser()._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # -h/--help is implicit, not documented in the table
        for option in action.option_strings:
            assert option in committed, f"{option} missing from docs/CLI.md"


def test_every_option_is_read_by_the_cli():
    """A flag whose ``dest`` ``cli.py`` never reads as ``args.<dest>`` is dead.

    Removing a feature must remove its flags too; this catches a flag
    left behind that parses but no longer does anything.
    """
    import argparse
    import ast

    from repro.experiments import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    dead = sorted(
        action.option_strings[0] for action in cli.build_parser()._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and action.dest not in read)
    assert not dead, f"options never read as args.<dest>: {dead}"
