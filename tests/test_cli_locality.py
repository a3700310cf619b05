"""Atom locality and stability under gluing, through the CLI.

Every command of the acceptance suite runs on seeded scenarios whose
atoms differ in every entry the command reads, with magnitudes that
span five decades and atoms placed near the tolerances (nearly
dependent generators, an origin on a box vertex, ``0.0`` against
``-0.0`` ties in a sequence).  Two properties are checked on the output
documents:

- permuting the atoms of a scenario permutes the rows of every per-atom
  output field;
- gluing two scenarios on the same atoms, atom ``k`` from the first
  where a mask holds and from the second elsewhere, gives the atom-wise
  glue of the two outputs;
- repeating atoms repeats rows: each atom of a scenario taken one to
  three times, shuffled, with fresh weights, gives every copy its source
  atom's rows, and the command runs once per block of copies.

Rows are compared as their JSON text, so ``-0.0`` against ``0.0``
counts.  Certificates that aggregate rows (counts, maxima, top ranks)
must equal the aggregate of the rows of their own document.  An
atom-localized error must name exactly the glue of the failing atoms, and
on repeated atoms every copy of a failing atom, as the run on all atoms
names them.

``default_dual_grid`` is shared across atoms by design: its width comes
from the steepest slope over all atoms.  So ``fenchel-moreau`` is given
an explicit dual grid, and for ``infconv --check`` every half of a glue
reaches the same steepest slope.
"""

import json

import numpy as np
import pytest

from test_acceptance import CLI_SUITE
from test_cli import num, run_cli

from stratalg import PreconditionError, _solvers, cli, functions
from stratalg._solvers import LPResult
from stratalg.io import Scenario

K = 8
XS = np.arange(-2.0, 2.001, 0.5)  # the nodes of "gabs"
STEEPEST = 3.0  # the steepest slope of every scenario's "gabs"

# the suite, with fenchel-moreau given its dual grid
COMMANDS = [
    cmd + ["--mins", "-4", "--maxs", "4", "--steps", "0.25"] if cmd[0] == "fenchel-moreau" else cmd
    for cmd in CLI_SUITE
]
IDS = [c[0] for c in COMMANDS]

# per-atom output fields: every row of these sections is one atom's
PER_ATOM = ("vectors", "sets", "scalars", "integers")


def _count(section, name):
    return lambda doc: sum(doc[section][name])


def _max(name):
    return lambda doc: max(num(v) for v in doc["scalars"][name])


# each certificate: how it follows from the rows of its document, or None
# when it is fixed by the command line
CERTIFICATES = {
    "generator_count": None,
    "top_rank": lambda doc: max(doc["integers"]["labels"]),
    "picks": "per_atom",  # one row per basis vector, one column per atom
    "max_gram_defect": _max("gram_defect"),
    "max_orthogonality_defect": _max("orthogonality"),
    "failure_atom_count": _count("sets", "failure_set"),
    "kind": None,
    "max_probe_excess": _max("probe_excess"),
    "probe_count": None,
    "dual_shape": None,
    "all_ok": lambda doc: all(doc["sets"]["minorant_ok"]) and all(doc["sets"]["idempotent_ok"]),
    "grid_step": None,
    "max_deviation_overall": _max("max_deviation"),
    "max_probe_violation": _max("probe_violation"),
    "feasible_everywhere": lambda doc: all(np.isfinite(num(v)) for v in doc["scalars"]["value"]),
    "max_additivity_defect": _max("additivity_defect"),
    "max_output_convexity_defect": _max("output_convexity_defect"),
    "depth": None,
    "slack": None,
    "passing_atom_count": _count("sets", "cauchy_on"),
    "unbounded_atom_count": lambda doc: len(doc["weights"]) - sum(doc["sets"]["bounded_on"]),
    "member_atom_count": _count("sets", "member_set"),
    "mode": None,
}


def grid_rows(rng, n):
    """``n`` rows of "gabs" on dyadic nodes whose steepest slope is at most
    ``STEEPEST``; the first row reaches it.  Convex, non-convex and
    ``+inf``-carrier rows in turn."""
    rows = []
    for k in range(n):
        slopes = rng.choice(np.arange(-STEEPEST, STEEPEST + 0.5, 0.5), len(XS) - 1)
        if k == 0:
            slopes[rng.integers(len(slopes))] = STEEPEST
        if k % 3 != 1:
            slopes = np.sort(slopes)
        v = float(rng.choice([-1.0, -0.5, 0.0, 0.5])) + np.concatenate([[0.0], np.cumsum(slopes * 0.5)])
        if k % 3 == 2:
            # a carrier around the origin node, so the infimal convolution
            # of the row with itself is finite there
            v[: int(rng.integers(0, 4))] = np.inf
            v[int(rng.integers(5, len(XS))):] = np.inf
        rows.append(v)
    return np.array(rows)


def scenario(rng, weights, big=False):
    """A scenario with the entry names of ``test_cli.scenario_doc``, drawn
    per atom.  ``big`` makes the first atom 10 000 times larger."""
    n = len(weights)
    mag = 10.0 ** rng.uniform(-1.0, 1.0, n)
    if big:
        mag[0] = 1e4
    col = mag[:, None]
    e1 = rng.normal(size=(n, 2)) * col
    e2 = rng.normal(size=(n, 2)) * col
    p = rng.normal(size=(n, 2)) * col
    kind = np.arange(n) % 4
    e2[(kind == 1) | (kind == 2)] = 2.0 * e1[(kind == 1) | (kind == 2)]
    # a generator 1e-7 off the line of e1 (in units of max(1, |e1|)):
    # independent at the atom's own scale, dependent at the scale of an
    # atom 10 000 times larger
    norm = np.linalg.norm(e1, axis=1, keepdims=True)
    off = e1 + 1e-7 * np.maximum(1.0, norm) * (e1[:, ::-1] * [-1.0, 1.0]) / norm
    p[kind == 2] = off[kind == 2]
    e2[kind == 3] = off[kind == 3]
    # one box vertex per quadrant, so the origin is inside; on some atoms
    # the origin is a vertex
    angle = (np.arange(4) + rng.uniform(0.1, 0.9, (n, 4))) * (np.pi / 2)
    box = rng.uniform(0.5, 2.0, (n, 4, 1)) * np.stack([np.cos(angle), np.sin(angle)], axis=2)
    box *= col[:, :, None]
    box[kind == 3, 0] = 0.0
    # sequence terms from a small pool with signed zeros; two positions
    # carry the pool's minimum in both coordinates, so depth 2 never
    # stalls, and on atoms whose minimum is zero its sign varies
    terms = np.empty((n, 6, 2))
    for k in range(n):
        pool = np.array([0.0, -0.0, 0.5, 1.0] + [-1.0] * (k % 2))
        terms[k] = rng.choice(pool, (6, 2)) * mag[k]
        at = rng.choice(6, 2, replace=False)
        low = pool.min() * mag[k] if k % 2 else rng.choice([0.0, -0.0], (2, 2))
        terms[k, at] = low
    sbound = np.linalg.norm(terms, axis=2).max(axis=1) + 1.0
    vectors = {
        "z": np.zeros((n, 2)),
        "e1": e1, "e2": e2, "m1": -e1, "m2": -e2, "p": p,
        "q": rng.normal(size=(n, 2)) * col,
        "far": rng.normal(size=(n, 2)) * 2.0 * col,
        "x0": rng.normal(size=(n, 2)) * col,
        **{f"b{i + 1}": box[:, i] for i in range(4)},
        **{f"s{t + 1}": terms[:, t] for t in range(6)},
    }
    scalars = {
        "zero": np.zeros(n),
        # below |e1| = p(e1 / |e1|): the extension exists
        "half": rng.uniform(-0.9, 0.9, n) * np.linalg.norm(e1, axis=1),
        "eps_wide": rng.uniform(0.5, 3.0, n) * mag,
        "eps_tight": rng.uniform(0.01, 0.3, n) * mag,
        "vbound": mag,
        "sbound": sbound,
    }
    return {
        "weights": list(weights),
        "d": 2,
        "vectors": {k: v.tolist() for k, v in vectors.items()},
        "sets": {"A": rng.integers(0, 2, n).tolist()},
        "scalars": {k: v.tolist() for k, v in scalars.items()},
        "convex_sets": {
            "box": {"points": ["b1", "b2", "b3", "b4"]},
            "dot": {"points": ["far"]},
            "ray_set": {"points": ["z"], "rays": ["e1"]},
            "line_x": {"points": ["z"], "lines": ["e1"]},
            "seg": {"points": ["z", "p"]},
        },
        "functions": {
            "absmax": {
                "type": "max_affine",
                "pieces": [["e1", "zero"], ["m1", "zero"], ["e2", "zero"], ["m2", "zero"]],
            },
            "gabs": {"type": "grid", "mins": [-2.0], "maxs": [2.0], "steps": [0.5],
                     "values": [[num_out(v) for v in row] for row in grid_rows(rng, n)]},
        },
        "sequences": {"osc": {"terms": [f"s{t}" for t in range(1, 7)], "bound": "sbound"}},
    }


def num_out(v):
    """The interchange spelling of an extended real."""
    return "+inf" if v == np.inf else float(v)


def atomwise(pick, *docs):
    """The scenario whose every per-atom entry is ``pick`` of the rows that
    ``docs`` hold for it."""
    out = json.loads(json.dumps(docs[0]))
    out["weights"] = pick(*(doc["weights"] for doc in docs))
    for section in ("vectors", "sets", "scalars"):
        out[section] = {name: pick(*(doc[section][name] for doc in docs))
                        for name in docs[0][section]}
    out["functions"]["gabs"]["values"] = pick(
        *(doc["functions"]["gabs"]["values"] for doc in docs))
    return out


# where a glue takes the first scenario's atom; atom 0, the large atom of
# the second, is glued in
MASK = np.isin(np.arange(K), [2, 3, 4, 6])


def glue_rows(first, second):
    return [a if m else b for m, a, b in zip(MASK, first, second)]


def run(tmp_path, cmd, doc, tag):
    """Exit code and output document; a float written ``-0`` stays ``-0.0``."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli([cmd[0], str(path), *cmd[1:]])
    return code, json.loads(out, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def atom_rows(doc):
    """Every per-atom output field as one JSON text per atom."""
    rows = {}
    for section in PER_ATOM:
        for name, values in doc[section].items():
            rows[section, name] = [json.dumps(v) for v in values]
    for name, rec in doc.get("functions", {}).items():
        rows["functions", name] = [json.dumps(v) for v in rec["values"]]
    if "picks" in doc["certificates"]:
        rows["certificates", "picks"] = [json.dumps(c) for c in zip(*doc["certificates"]["picks"])]
    rows["weights", ""] = [json.dumps(w) for w in doc["weights"]]
    return rows


def check_certificates(doc):
    """Every certificate is known, and an aggregate equals its rows'."""
    for key, value in doc["certificates"].items():
        assert key in CERTIFICATES, key
        rule = CERTIFICATES[key]
        if callable(rule):
            assert num(value) == rule(doc), key


def fixed_part(doc):
    """What no atom owns: grid records without values, fixed certificates."""
    grids = {name: {k: v for k, v in rec.items() if k != "values"}
             for name, rec in doc.get("functions", {}).items()}
    certs = {k: v for k, v in doc["certificates"].items() if CERTIFICATES.get(k) is None}
    return doc["d"], grids, certs


def steepest(doc):
    V = np.array([[num(v) for v in row] for row in doc["functions"]["gabs"]["values"]])
    slopes = [np.abs(np.diff(row[np.isfinite(row)])) / 0.5 for row in V]
    return max(s.max(initial=0.0) for s in slopes)


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=IDS)
def test_permuting_atoms_permutes_rows(i, tmp_path):
    cmd, rng = COMMANDS[i], np.random.default_rng(1000 + i)
    doc = scenario(rng, rng.uniform(0.5, 2.0, K), big=True)
    perm = rng.permutation(K)
    code, base = run(tmp_path, cmd, doc, "base")
    code_p, moved = run(tmp_path, cmd, atomwise(lambda rows: [rows[j] for j in perm], doc), "perm")
    assert code == code_p == 0, (base, moved)
    check_certificates(base)
    check_certificates(moved)
    assert fixed_part(moved) == fixed_part(base)
    want = {key: [rows[j] for j in perm] for key, rows in atom_rows(base).items()}
    assert atom_rows(moved) == want


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=IDS)
def test_gluing_scenarios_glues_outputs(i, tmp_path):
    cmd, rng = COMMANDS[i], np.random.default_rng(2000 + i)
    weights = rng.uniform(0.5, 2.0, K)
    # only the second scenario has a large atom, so a tolerance scaled by a
    # maximum over atoms reads another value in the glue than in the first
    first, second = scenario(rng, weights), scenario(rng, weights, big=True)
    glued = atomwise(glue_rows, first, second)
    assert steepest(first) == steepest(second) == steepest(glued) == STEEPEST
    outs = [run(tmp_path, cmd, doc, tag) for doc, tag in
            ((first, "first"), (second, "second"), (glued, "glued"))]
    assert [code for code, _ in outs] == [0, 0, 0], outs
    (_, a), (_, b), (_, g) = outs
    for doc in (a, b, g):
        check_certificates(doc)
    assert fixed_part(a) == fixed_part(b) == fixed_part(g)
    a, b = atom_rows(a), atom_rows(b)
    assert a.keys() == b.keys()
    assert atom_rows(g) == {key: glue_rows(a[key], b[key]) for key in a}


def stall(doc, k):
    """A unique minimum on atom ``k``: extraction to depth 2 stalls."""
    for t in range(6):
        doc["vectors"][f"s{t + 1}"][k] = [float(t + 1), 0.0]
    doc["scalars"]["sbound"][k] = 7.0


def origin_outside(doc, k, gap):
    """A unit box at distance ``gap`` from the origin on atom ``k``."""
    for i, corner in enumerate([(gap, -0.5), (gap + 1.0, -0.5), (gap + 1.0, 0.5), (gap, 0.5)]):
        doc["vectors"][f"b{i + 1}"][k] = list(corner)


def no_epsilon(doc, k):
    doc["scalars"]["eps_wide"][k] = 0.0


# a command, and how each scenario fails on its atoms: the first fails on
# atoms 2, 3 and 6, the second on atoms 1, 4 and 5; the glue takes atoms
# 2, 3 and 6 from the first and 1 and 5 from the second
FAILURES = {
    "bw": (stall, stall),
    "cauchy": (no_epsilon, no_epsilon),
    # atom 2 of the first misses the origin by 1e-7, inside a tolerance
    # scaled by the large atom of the second but outside its own
    "bounded-test": (lambda doc, k: origin_outside(doc, k, 1e-7 if k == 2 else 0.25),
                     lambda doc, k: origin_outside(doc, k, 3.0)),
}


@pytest.mark.parametrize("command", list(FAILURES))
def test_glued_errors_name_the_glued_atoms(command, tmp_path):
    cmd = next(c for c in COMMANDS if c[0] == command)
    rng = np.random.default_rng(3000 + IDS.index(command))
    weights = rng.uniform(0.5, 2.0, K)
    first, second = scenario(rng, weights), scenario(rng, weights, big=True)
    breaks = FAILURES[command]
    for k in (2, 3, 6):
        breaks[0](first, k)
    for k in (1, 4, 5):
        breaks[1](second, k)
    outs = [run(tmp_path, cmd, doc, tag) for doc, tag in
            ((first, "first"), (second, "second"),
             (atomwise(glue_rows, first, second), "glued"))]
    assert [code for code, _ in outs] == [2, 2, 2], outs
    (_, a), (_, b), (_, g) = outs
    assert a["error"]["atoms"] == [2, 3, 6]
    assert b["error"]["atoms"] == [1, 4, 5]
    assert g["error"]["atoms"] == [1, 2, 3, 5, 6]
    assert a["error"]["kind"] == b["error"]["kind"] == g["error"]["kind"]


def repeated(rng, doc):
    """``doc``'s atoms, each one to three times, shuffled, with fresh
    weights; and the source atom of each."""
    src = rng.permutation(np.repeat(np.arange(K), rng.integers(1, 4, K)))
    out = atomwise(lambda rows: [rows[j] for j in src], doc)
    out["weights"] = rng.uniform(0.5, 2.0, len(src)).tolist()
    return out, src


def copies(src, atoms):
    """Every copy of the source atoms ``atoms``."""
    return np.flatnonzero(np.isin(src, atoms)).tolist()


@pytest.fixture
def placed(monkeypatch):
    """The ``atoms`` argument of every ``emit_document`` call of the CLI."""
    calls, emit = [], cli.emit_document

    def recorded(doc, atoms=None):
        calls.append(atoms)
        return emit(doc, atoms)

    monkeypatch.setattr(cli, "emit_document", recorded)
    return calls


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=IDS)
def test_repeated_atoms_repeat_rows(i, tmp_path, placed):
    cmd, rng = COMMANDS[i], np.random.default_rng(4000 + i)
    doc = scenario(rng, rng.uniform(0.5, 2.0, K), big=True)
    rep, src = repeated(rng, doc)
    code, base = run(tmp_path, cmd, doc, "distinct")
    code_r, out = run(tmp_path, cmd, rep, "repeated")
    assert code == code_r == 0, (base, out)
    # the distinct atoms run as they are; the copies once per block
    assert len(placed) == 2 and placed[0] is None
    blocks = placed[1]
    assert [blocks[j] == blocks[k] for j in range(len(src)) for k in range(len(src))] == [
        src[j] == src[k] for j in range(len(src)) for k in range(len(src))]
    check_certificates(out)
    assert fixed_part(out) == fixed_part(base)
    want = {key: [rows[j] for j in src] for key, rows in atom_rows(base).items()}
    want["weights", ""] = [json.dumps(w) for w in rep["weights"]]
    assert atom_rows(out) == want


def run_text(tmp_path, cmd, doc, tag):
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run_cli([cmd[0], str(path), *cmd[1:]])


def assert_as_on_all_atoms(tmp_path, monkeypatch, cmd, doc, atoms):
    """The command, begun on blocks of copies, gives the document and
    exit code of its run on all atoms, an error that names ``atoms``."""
    quotients, quotient = [], Scenario.quotient

    def recorded(self, names):
        quotients.append(quotient(self, names))
        return quotients[-1]

    monkeypatch.setattr(Scenario, "quotient", recorded)
    code, text = run_text(tmp_path, cmd, doc, "blocks")
    assert quotients[0] is not None
    monkeypatch.setattr(Scenario, "quotient", lambda self, names: None)
    assert (code, text) == run_text(tmp_path, cmd, doc, "all")
    assert code == 2
    assert json.loads(text)["error"]["atoms"] == atoms


@pytest.mark.parametrize("command", list(FAILURES))
def test_repeated_errors_name_every_copy(command, tmp_path, monkeypatch):
    cmd = next(c for c in COMMANDS if c[0] == command)
    rng = np.random.default_rng(5000 + IDS.index(command))
    doc = scenario(rng, rng.uniform(0.5, 2.0, K))
    for k in (2, 3, 6):
        FAILURES[command][0](doc, k)
    rep, src = repeated(rng, doc)
    assert_as_on_all_atoms(tmp_path, monkeypatch, cmd, rep, copies(src, [2, 3, 6]))


@pytest.mark.parametrize("command", ["argmin", "ri-test"])
def test_repeated_lp_faults_name_every_copy(command, tmp_path, monkeypatch):
    # an LP fails where its constraints hold the first coordinate of the
    # box vertex b1 of atom 2 or 5, as on a solver fault that the data
    # of those atoms cause
    cmd = next(c for c in COMMANDS if c[0] == command)
    rng = np.random.default_rng(6000 + IDS.index(command))
    doc = scenario(rng, rng.uniform(0.5, 2.0, K))
    marks = [abs(doc["vectors"]["b1"][k][0]) for k in (2, 5)]
    real = _solvers.solve_lp

    def faulty(model, k, c, hot=False):
        data = np.abs(np.concatenate([model.A_ub[k].ravel(), model.A_eq[k].ravel()]))
        return LPResult(4, None, None) if np.isin(marks, data).any() else real(model, k, c, hot=hot)

    for mod in (_solvers, functions):
        monkeypatch.setattr(mod, "solve_lp", faulty)
    rep, src = repeated(rng, doc)
    assert_as_on_all_atoms(tmp_path, monkeypatch, cmd, rep, copies(src, [2, 5]))



def test_only_package_errors_fall_back_to_all_atoms(tmp_path, monkeypatch):
    # a fault of the quotient path itself (a RuntimeError there) raises
    # out of cli.main; a PreconditionError there sends the command to all
    # atoms, and where that run raises too, its error document names the
    # atoms of that run
    cmd = COMMANDS[0]
    rng = np.random.default_rng(7000)
    rep, _ = repeated(rng, scenario(rng, rng.uniform(0.5, 2.0, K)))
    natoms, emit = len(rep["weights"]), cli.emit_document
    code, plain = run_text(tmp_path, cmd, rep, "plain")
    assert code == 0

    def inject(error, everywhere=False):
        def emit_document(doc, atoms=None):
            if atoms is not None:  # the rows of a quotient
                raise error(len(np.unique(atoms)))
            if everywhere and "error" not in doc:
                raise error(natoms)
            return emit(doc, atoms)
        monkeypatch.setattr(cli, "emit_document", emit_document)

    def odd_atoms(n):
        return PreconditionError("injected", np.arange(n) % 2 == 1)

    inject(lambda n: RuntimeError("injected"))
    with pytest.raises(RuntimeError, match="injected"):
        run_text(tmp_path, cmd, rep, "runtime")
    inject(odd_atoms)
    assert run_text(tmp_path, cmd, rep, "fallback") == (0, plain)
    inject(odd_atoms, everywhere=True)
    code, text = run_text(tmp_path, cmd, rep, "error")
    assert code == 2 and json.loads(text)["error"]["atoms"] == list(range(1, natoms, 2))
