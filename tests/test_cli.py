"""Byte-exact golden-file tests for every command plus the exit-code contract."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from weakhopf.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture()
def in_golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "name,fname",
    [
        ("k", "k.wba.json"),
        ("c2", "c2.wba.json"),
        ("gpd2", "gpd2.wba.json"),
        ("sum", "sum.wba.json"),
        ("z3@gf2", "z3gf2.wba.json"),
    ],
)
def test_fixture_documents_are_byte_exact(capsys, name, fname):
    code, out = run(capsys, ["fixture", name])
    assert code == 0
    assert out == golden(fname)


def test_dsum_matches_sum_preset(capsys, in_golden_dir):
    code, out = run(capsys, ["dsum", "c2.wba.json", "gpd2.wba.json"])
    assert code == 0
    assert out == golden("sum.wba.json")


def test_dualize_golden_and_round_trip(capsys, tmp_path, in_golden_dir):
    code, out = run(capsys, ["dualize", "gpd2.wba.json"])
    assert code == 0
    assert out == golden("gpd2_dual.wba.json")
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(out, encoding="utf-8")
    code, out2 = run(capsys, ["dualize", str(dual_path)])
    assert code == 0
    assert out2 == golden("gpd2.wba.json")


@pytest.mark.parametrize(
    "argv,fname",
    [
        (["check", "gpd2.wba.json"], "check_gpd2.txt"),
        (["check", "gpd2.wba.json", "--format", "structured"], "check_gpd2.structured.json"),
        (["check", "z3gf2.wba.json"], "check_z3gf2.txt"),
        (["counital", "gpd2.wba.json"], "counital_gpd2.txt"),
        (["counital", "c2.wba.json"], "counital_c2.txt"),
        (["counital", "k.wba.json"], "counital_k.txt"),
        (["lemmas", "c2.wba.json"], "lemmas_c2.txt"),
        (["decompose", "sum.wba.json"], "decompose_sum.txt"),
        (["decompose", "sum.wba.json", "--format", "structured"], "decompose_sum.structured.json"),
        (["decompose", "gpd2.wba.json"], "decompose_gpd2.txt"),
        (["decompose", "k.wba.json"], "decompose_k.txt"),
        (
            ["reconstruct", "gpd2.wba.json", "gpd2.wba.json", "swap_functor.json"],
            "reconstruct_swap.txt",
        ),
    ],
)
def test_report_commands_golden(capsys, in_golden_dir, argv, fname):
    code, out = run(capsys, argv)
    assert code == 0
    assert out == golden(fname)


def test_check_perturbed_exits_one(capsys, in_golden_dir):
    code, out = run(capsys, ["check", "gpd2_broken.wba.json"])
    assert code == 1
    assert out == golden("check_gpd2_broken.txt")


def test_check_truncated_exits_two(capsys, in_golden_dir):
    code, out = run(capsys, ["check", "truncated.wba.json"])
    assert code == 2
    assert out == golden("check_truncated.txt")


def test_reconstruct_corrupt_exits_one(capsys, in_golden_dir):
    code, out = run(capsys, ["reconstruct", "gpd2.wba.json", "gpd2.wba.json", "corrupt_functor.json"])
    assert code == 1
    assert out == golden("reconstruct_corrupt.txt")
    assert "first failing layer: comodule-validity" in out


def test_reconstruct_missing_coaction_exits_two(capsys, in_golden_dir, tmp_path):
    doc = json.loads(golden("swap_functor.json"))
    del doc["assignments"][1]["coaction"]
    functor = tmp_path / "F.json"
    functor.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, ["reconstruct", "gpd2.wba.json", "gpd2.wba.json", str(functor)])
    assert code == 2
    assert "error [malformed]" in out


@pytest.mark.parametrize(
    "fname,key,loader",
    [
        ("gpd2.wba.json", "antipode", "wba"),
        ("swap_functor.json", "unit_map", "functor"),
    ],
)
def test_non_list_grid_is_malformed(fname, key, loader, gpd2):
    from weakhopf.errors import MalformedInput
    from weakhopf.serialize import functor_from_document, wba_from_document

    doc = json.loads(golden(fname))
    assert key in doc
    doc[key] = 7
    with pytest.raises(MalformedInput, match=key):
        if loader == "wba":
            wba_from_document(doc)
        else:
            functor_from_document(doc, gpd2, {}, gpd2)


def test_structured_report_is_json_with_exit_code(capsys, in_golden_dir):
    code, out = run(capsys, ["decompose", "sum.wba.json", "--format", "structured"])
    doc = json.loads(out)
    assert doc["exit_code"] == code == 0
    assert doc["derived"]["blocks"] == 2


def test_out_flag_writes_file(tmp_path, capsys, in_golden_dir):
    target = tmp_path / "out.json"
    code, out = run(capsys, ["fixture", "gpd2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == golden("gpd2.wba.json")


def test_missing_file_is_malformed(capsys):
    code, out = run(capsys, ["check", "no-such-file.json"])
    assert code == 2
    assert "error [malformed]" in out


def test_bad_field_flag(capsys):
    code, _ = run(capsys, ["fixture", "c2", "--field", "GF(6)"])
    assert code == 2


@pytest.mark.parametrize(
    "field,scalar,code",
    [
        ("GF(100000000000031)", "1", 0),
        ("GF(1000000000000000003)", "1", 0),
        ("GF(" + "9" * 5000 + ")", "1", 2),
        ("GF(3317044064679887385961981)", "1", 2),
        ("Q", "1" * 5000, 2),
        ("GF(5)", "1" * 5000, 2),
    ],
    ids=["14-digit", "19-digit", "5000-digit", "above-cap", "Q-scalar", "GF-scalar"],
)
def test_hostile_fields_and_scalars_exit_in_bounded_time(capsys, tmp_path, field, scalar, code):
    doc = json.loads(golden("k.wba.json"))
    doc["field"] = field
    doc["unit"] = [scalar]
    path = tmp_path / "k.wba.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    got, out = run(capsys, ["check", str(path)])
    assert time.perf_counter() - t0 < 2.0
    assert got == code
    if code == 2:
        assert "error [malformed]" in out


@pytest.mark.parametrize(
    "key,value",
    [("unit", ["1\n", "0"]), ("unit", ["\u0661", "0"]), ("field", "GF(\u0663)")],
    ids=["unit-trailing-newline", "unit-arabic-indic-one", "field-arabic-indic-three"],
)
def test_non_ascii_digits_and_trailing_newlines_exit_two(capsys, tmp_path, key, value):
    doc = json.loads(golden("c2.wba.json"))
    doc[key] = value
    path = tmp_path / "c2.wba.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, ["check", str(path)])
    assert code == 2
    assert "error [malformed]" in out


def test_round_trip_parse_emit(in_golden_dir, capsys, tmp_path):
    # emit . parse is the identity on canonical documents
    from weakhopf.serialize import emit, parse_text, wba_from_document, document_from_wba

    text = golden("sum.wba.json")
    h, _ = wba_from_document(parse_text(text))
    assert emit(document_from_wba(h)) == text


def test_parse_canonicalizes_scalars(in_golden_dir):
    # emit . parse is idempotent: non-lowest-terms scalars canonicalize once
    from weakhopf.serialize import emit, parse_text, wba_from_document, document_from_wba

    doc = json.loads(golden("c2.wba.json"))
    doc["mult"][1][1][0] = "2/2"
    h, _ = wba_from_document(doc)
    once = emit(document_from_wba(h))
    assert '"2/2"' not in once and once == golden("c2.wba.json")


def test_fixture_field_override(capsys):
    code, out = run(capsys, ["fixture", "c2", "--field", "GF(5)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "GF(5)"
    assert doc["mult"][1][1][0] == "1"


def test_console_entry_point_smoke():
    # the child process finds the package where this process imported it from
    import weakhopf

    src = str(pathlib.Path(weakhopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "weakhopf.cli", "fixture", "k"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 1


@pytest.mark.parametrize(
    "key,value",
    [
        ("field", 7),
        ("field", 1.5),
        ("field", ["Q"]),
        ("field", {"name": "Q"}),
        ("field", None),
        ("comodules", 5),
        ("comodules", "regular"),
        ("comodules", {"name": "m"}),
    ],
    ids=["field-int", "field-float", "field-list", "field-dict", "field-null",
         "comodules-int", "comodules-str", "comodules-dict"],
)
def test_mistyped_document_keys_exit_two(capsys, tmp_path, key, value):
    doc = json.loads(golden("k.wba.json"))
    doc[key] = value
    path = tmp_path / "k.wba.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "error [malformed]" in out
    assert "Traceback" not in out + err


def test_decompose_with_huge_rational_constants_is_bounded(capsys, tmp_path):
    # k + k in the basis (1, 0), (N, 1): the minimal polynomial (t - 1)(t - N)
    # has a 31-digit constant, far beyond root search by trial division
    from test_axiom_kernels import rebased
    from weakhopf.decomp import direct_sum
    from weakhopf.fixtures import preset
    from weakhopf.serialize import document_from_wba, emit
    from weakhopf.weakbia import build_weak_bialgebra

    alg, coa, _ = rebased(direct_sum(preset("k"), preset("k")), [(1, 10**30 + 57), (0, 1)])
    path = tmp_path / "huge.wba.json"
    path.write_text(emit(document_from_wba(build_weak_bialgebra(alg, coa))), encoding="utf-8")
    start = time.perf_counter()
    code, out = run(capsys, ["decompose", str(path)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "blocks: 2\n" in out
    assert "block dims: [1 1]\n" in out
    assert "certificates: [indecomposable indecomposable]\n" in out
