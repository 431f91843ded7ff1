"""Every golden CLI case of tests/golden/ gives its recorded bytes again."""

import pytest

from golden.regenerate import CASES, golden_path, render, run_case
from ofdmsee.cli import _build_parser


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert render(run_case(argv)) == golden_path(name).read_text()


def test_every_subcommand_has_a_golden_case():
    subparsers = _build_parser()._subparsers._group_actions[0]
    assert set(subparsers.choices) == {argv[0] for _, argv in CASES}
