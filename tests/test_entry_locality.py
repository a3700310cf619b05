"""A command reads only the entries it names, through the CLI.

For every command of the acceptance suite, every scenario entry that the
command does not name, directly or through a convex set, function or
sequence, is perturbed, reordered, laid out differently or replaced by
malformed content that still nests and ends its strings.  The command's
stdout must stay byte-identical to its golden file.  A command that does
name a malformed entry fails with the message that the whole-document
reader (``test_io.ref_load`` and ``ref_build``) gives for the same text.
"""

import json

import numpy as np
import pytest

from test_acceptance import CLI_SUITE
from test_cli import run_cli, scenario_doc
from test_golden import golden_path
from test_io import ref_build, ref_load

from stratalg.io import ParseError

# the entries each command of CLI_SUITE names, closed under references
_BOX = {"convex_sets": {"box"}, "vectors": {"b1", "b2", "b3", "b4"}}
_ABSMAX = {"functions": {"absmax"}, "vectors": {"e1", "m1", "e2", "m2"}, "scalars": {"zero"}}
_OSC = {"sequences": {"osc"}, "vectors": {f"s{t}" for t in range(1, 7)},
        "scalars": {"sbound"}}


def _union(*parts):
    out = {}
    for part in parts:
        for section, names in part.items():
            out[section] = out.get(section, set()) | names
    return out


NAMED = {
    "basis": {"vectors": {"e1", "e2", "p"}},
    "orthonormalize": {"vectors": {"e1", "e2"}},
    "decompose": {"vectors": {"x0", "e1"}},
    "separate": _union(_BOX, {"convex_sets": {"dot"}, "vectors": {"far"}}),
    "hahn-banach": _union(_ABSMAX, {"convex_sets": {"line_x"}, "vectors": {"z"},
                                    "scalars": {"half"}}),
    "conjugate": {"functions": {"gabs"}},
    "fenchel-moreau": {"functions": {"gabs"}},
    "subgrad": _union(_ABSMAX, {"vectors": {"z"}}),
    "argmin": _union(_ABSMAX, _BOX),
    "infconv": {"functions": {"gabs"}},
    "bw": _OSC,
    "cauchy": _union(_OSC, {"scalars": {"eps_wide"}}),
    "bounded-test": _BOX,
    "ri-test": _union(_BOX, {"vectors": {"z"}}),
}

# entry contents that nest and end their strings but no reader accepts
MALFORMED = [
    "[[1.2.3, 0.0], [0.0, 0.0]]",  # not a JSON number
    "[[1.0 2.0], [3.0, 4.0]]",  # a missing comma
    '[["x", 0.0], [0.0, 0.0]]',
    "[[1e999, 0.0], [0.0, 0.0]]",
    '"text"',
    '{"type": "max_affine", "pieces": [["ghost", "zero"]], "points": ["ghost"]}',
    '{"terms": [], "a": [1, {"b": [2, [3, [4, [5]]]]}]}',  # nested past the skip pattern
]


def render(doc: dict, raw: dict, layout) -> str:
    """``doc`` as JSON text, with ``raw[(section, name)]`` as an entry's value text."""
    marks = {}
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    for i, ((section, name), text) in enumerate(raw.items()):
        marks[f"@entry{i}@"] = text
        doc[section][name] = f"@entry{i}@"
    out = layout(doc)
    for mark, text in marks.items():
        assert out.count(json.dumps(mark)) == 1
        out = out.replace(json.dumps(mark), text)
    return out


def unnamed(command: str) -> list:
    doc, named = scenario_doc(), NAMED[command]
    return [(s, n) for s in doc if isinstance(doc[s], dict)
            for n in doc[s] if n not in named.get(s, ())]


def named(command: str) -> list:
    return [(s, n) for s, names in NAMED[command].items() for n in sorted(names)]


def run(tmp_path, cmd: list, text: str) -> tuple:
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    return run_cli([cmd[0], str(path), *cmd[1:]])


def golden(i: int) -> str:
    with open(golden_path(i, CLI_SUITE[i]), encoding="utf-8") as fh:
        return fh.read()


def perturbed(rng, value):
    """Other numbers of the same nesting, or the value unchanged."""
    if isinstance(value, list):
        return [perturbed(rng, v) for v in value]
    if isinstance(value, float):
        return float(rng.normal())
    return value


def shuffled(rng, doc: dict) -> dict:
    keys = list(doc)
    out = {}
    for k in rng.permutation(len(keys)):
        v = doc[keys[k]]
        out[keys[k]] = shuffled(rng, v) if isinstance(v, dict) else v
    return out


LAYOUTS = {
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "indented": lambda doc: json.dumps(doc, indent=3),
    "tabbed": lambda doc: json.dumps(doc, indent="\t").replace("\n", "\r\n"),
}

IDS = [c[0] for c in CLI_SUITE]


def test_named_entries_cover_the_suite():
    assert [c[0] for c in CLI_SUITE] == list(NAMED)
    doc = scenario_doc()
    for command, sections in NAMED.items():
        for section, names in sections.items():
            assert names <= set(doc[section]), command


@pytest.mark.parametrize("i", range(len(CLI_SUITE)), ids=IDS)
def test_unnamed_entries_are_never_read(i, tmp_path):
    cmd = CLI_SUITE[i]
    want = golden(i)
    others = unnamed(cmd[0])
    assert others
    rng = np.random.default_rng([13, i])
    doc = scenario_doc()
    for section, name in others:  # other numbers of the same shape
        doc[section][name] = perturbed(rng, doc[section][name])
    for layout in LAYOUTS.values():
        assert run(tmp_path, cmd, render(shuffled(rng, doc), {}, layout)) == (0, want)
    for k, layout in enumerate(LAYOUTS.values()):
        for j in range(len(MALFORMED)):
            raw = {key: MALFORMED[(j + n) % len(MALFORMED)] for n, key in enumerate(others)}
            text = render(shuffled(rng, scenario_doc()), raw, layout)
            with pytest.raises(ParseError):
                ref_build(ref_load(text))
            assert run(tmp_path, cmd, text) == (0, want), (k, j)


@pytest.mark.parametrize("i", range(len(CLI_SUITE)), ids=IDS)
def test_a_malformed_named_entry_fails_as_the_whole_document_reader(i, tmp_path):
    cmd = CLI_SUITE[i]
    for key in named(cmd[0]):
        for bad in MALFORMED[:5]:
            text = render(scenario_doc(), {key: bad}, LAYOUTS["indented"])
            try:
                ref_build(ref_load(text))
            except ParseError as exc:
                want = str(exc)
            except TypeError:  # a sequence of lists: the reference crashed on the name
                want = f"unknown vector {json.loads(bad)[0]!r}"
            code, out = run(tmp_path, cmd, text)
            assert code == 1, (key, bad)
            got = json.loads(out)["error"]
            assert got == {"kind": "ParseError", "message": want}, (key, bad)
