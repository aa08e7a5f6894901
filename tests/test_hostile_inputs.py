"""A seeded corpus of mutated documents through the CLI: the exit-code contract.

Every mutant of the golden documents k, c2, gpd2, sum and z3gf2 goes through
`cli.main` for `check`, `lemmas`, `counital`, `dualize`, `decompose` and
`dsum` (the mutant as the first summand, k as the second), and every mutant of the functor documents swap_functor and
corrupt_functor through `reconstruct` from gpd2 to gpd2.  Whatever the
mutation, the command must answer with exit code 0 (pass), 1 (violation) or
2 (malformed input), print no traceback, and finish within
PER_DOCUMENT_SECONDS.  The corpus also holds k + k in the basis
(1, 0), (10^30 + 57, 1), whose 31-digit constants once hung `decompose`.
"""

import copy
import json
import pathlib
import random
import time

import pytest

from test_axiom_kernels import rebased
from weakhopf.cli import main
from weakhopf.decomp import direct_sum
from weakhopf.fixtures import preset
from weakhopf.serialize import document_from_wba, emit
from weakhopf.weakbia import build_weak_bialgebra

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEED = 20261020
MUTANTS_PER_DOCUMENT = 30
PER_DOCUMENT_SECONDS = 1.0
SOURCES = ("k", "c2", "gpd2", "sum", "z3gf2")
FUNCTORS = ("swap_functor", "corrupt_functor")
ODD_FIELDS = ("GF(4)", "GF(1)", "GF(-3)", "GF(2)", "GF(1009)", "QQ", "", "R", "GF(" + "7" * 40 + ")")
TENSORS = ("mult", "unit", "comult", "counit", "antipode")
ODD_SCALARS = ("0", "2", "-1", str(10**30 + 57), "1/3", "-7/2", "1/0", "x", "0.5", "", 3, None, [], {})
ODD_VALUES = (None, 0, -1, "1", [], {}, [[]], "wba/1", 10**30)
FUNCTOR_KEYS = ("assignments", "unit_map")
ODD_NAMES = ("regular*", "unit*unit*unit", "counit", "regular*regular", " unit ", "", "*")


def _paths(node, path=()):
    """Every path into the nested lists and objects of a JSON value."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _mutate(rng, doc, keys=TENSORS):
    """One mutant of the parsed document doc, as text; most often one scalar
    under the top-level keys is replaced, so that many mutants parse.  A
    functor document (no field) has a comodule name replaced instead of its field."""
    doc = copy.deepcopy(doc)
    kind = rng.choice((0, 1, 2, 3, 4, 4, 4, 5, 6))
    if kind == 6:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    if kind == 5:
        if "field" in doc:
            doc["field"] = rng.choice(ODD_FIELDS)
        else:
            rng.choice(doc["assignments"])["comodule"] = rng.choice(ODD_NAMES)
        return json.dumps(doc)
    paths = [p for p in _paths(doc) if p]
    if kind == 4:
        leaves = [p for p in paths if p[0] in keys and isinstance(_parent(doc, p)[p[-1]], str)]
        path = rng.choice(leaves)
        _parent(doc, path)[path[-1]] = rng.choice(ODD_SCALARS)
        return json.dumps(doc)
    lists = [p for p in paths if isinstance(_parent(doc, p)[p[-1]], list) and _parent(doc, p)[p[-1]]]
    path = rng.choice(paths if kind < 2 else lists)
    parent, key = _parent(doc, path), path[-1]
    if kind == 0:
        del parent[key]
    elif kind == 1:
        parent[key] = rng.choice(ODD_VALUES)
    elif kind == 2:
        del parent[key][rng.randrange(len(parent[key]))]
    else:
        items = parent[key]
        items.insert(rng.randrange(len(items) + 1), copy.deepcopy(rng.choice(items)))
    return json.dumps(doc)


def _huge_kk() -> str:
    alg, coa, _ = rebased(direct_sum(preset("k"), preset("k")), [(1, 10**30 + 57), (0, 1)])
    return emit(document_from_wba(build_weak_bialgebra(alg, coa)))


def corpus():
    """(name, text) of every document of the corpus, in a seeded order."""
    rng = random.Random(SEED)
    out = [("k+k@(10^30+57)", _huge_kk())]
    for source in SOURCES:
        doc = json.loads((GOLDEN / f"{source}.wba.json").read_text(encoding="utf-8"))
        out += [(f"{source}#{i}", _mutate(rng, doc)) for i in range(MUTANTS_PER_DOCUMENT)]
    return out


def functor_corpus():
    """(name, text) of the functor documents, each followed by its mutants in a
    seeded order; swap_functor also without its unit morphism and without its
    regular assignment, which `reconstruct` once met with a traceback."""
    rng = random.Random(SEED)
    swap = json.loads((GOLDEN / "swap_functor.json").read_text(encoding="utf-8"))
    out = [("swap_functor-unit_map", json.dumps({k: v for k, v in swap.items() if k != "unit_map"})),
           ("swap_functor-regular", json.dumps({**swap, "assignments": swap["assignments"][1:]}))]
    for source in FUNCTORS:
        text = (GOLDEN / f"{source}.json").read_text(encoding="utf-8")
        out.append((source, text))
        out += [(f"{source}#{i}", _mutate(rng, json.loads(text), FUNCTOR_KEYS))
                for i in range(MUTANTS_PER_DOCUMENT)]
    return out


@pytest.mark.parametrize("command", ["check", "lemmas", "counital", "dualize", "decompose", "dsum", "reconstruct"])
def test_mutated_documents_keep_the_exit_code_contract(capsys, tmp_path, command):
    k_path, gpd2_path = str(GOLDEN / "k.wba.json"), str(GOLDEN / "gpd2.wba.json")
    codes = set()
    for name, text in functor_corpus() if command == "reconstruct" else corpus():
        path = tmp_path / "mutant.json"
        path.write_text(text, encoding="utf-8")
        argv = {"dsum": [command, str(path), k_path],
                "reconstruct": [command, gpd2_path, gpd2_path, str(path)]}.get(command, [command, str(path)])
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (name, code, out, err)
        assert "Traceback" not in out + err, name
        assert elapsed < PER_DOCUMENT_SECONDS, (name, elapsed)
        codes.add(code)
    # the corpus reaches every code of the contract
    assert codes == {0, 1, 2}
