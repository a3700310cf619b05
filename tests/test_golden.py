"""CLI documents checked byte for byte against frozen copies.

``tests/golden/NN_<command>.json`` holds the stdout of the ``CLI_SUITE``
commands of the acceptance suite on the two-atom test scenario, in suite
order.  They were written before the interchange layer parsed and
emitted arrays whole, so they pin both the numbers and the rendering.
A change that alters an output on purpose rewrites them with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import os

import pytest

from test_acceptance import CLI_SUITE
from test_cli import run_cli, scenario_doc

from stratalg.io import emit_document

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_path(i: int, cmd: list) -> str:
    return os.path.join(GOLDEN, f"{i + 1:02d}_{cmd[0]}.json")


def suite_output(scenario: str, cmd: list) -> str:
    code, out = run_cli([cmd[0], scenario] + cmd[1:])
    assert code == 0
    return out


@pytest.mark.parametrize("i", range(len(CLI_SUITE)), ids=[c[0] for c in CLI_SUITE])
def test_cli_output_matches_golden(i, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(emit_document(scenario_doc()))
    with open(golden_path(i, CLI_SUITE[i]), encoding="utf-8") as fh:
        want = fh.read()
    assert suite_output(str(scenario), CLI_SUITE[i]) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(emit_document(scenario_doc()))
        for i, cmd in enumerate(CLI_SUITE):
            with open(golden_path(i, cmd), "w", encoding="utf-8") as fh:
                fh.write(suite_output(scenario, cmd))
