import json

import pytest

from axheights.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "--a", "12")
    assert code == 0
    assert "I2*" in out and "III" in out


def test_classify_single_prime_json(capsys):
    code, out, _ = run(capsys, "classify", "--a", "9", "--prime", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["kodaira"] == "I0*"
    assert doc["rows"][0]["tamagawa"] == 2


def test_classify_strict_minimal(capsys):
    code, _, err = run(capsys, "classify", "--a", "48", "--strict-minimal")
    assert code == 3
    code, out, err = run(capsys, "classify", "--a", "48")
    assert code == 0
    assert "minimal model a = 3" in err


def test_height_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "height", "--a", "3", "--x", "1", "--y", "2", "--json")
    code2, out2, _ = run(capsys, "height", "--a", "3", "--x", "1", "--y", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["canonical"] == pytest.approx(0.250591196023589, abs=1e-12)


def test_height_torsion(capsys):
    code, out, _ = run(capsys, "height", "--a", "4", "--x", "2", "--y", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"] == 0.0 and doc["is_torsion"]


def test_height_not_on_curve(capsys):
    for command in ("height", "verify", "oracle"):
        code, out, err = run(capsys, command, "--a", "3", "--x", "1", "--y", "5")
        assert code == 4
        assert out == ""
        assert "error: (1, 5) is not on y^2 = x^3 + 3x" in err.splitlines()


def test_verify_json_extends_height_json(capsys):
    point = ("--a", "-2", "--x", "-1", "--y", "1", "--json")
    code, out, _ = run(capsys, "height", *point)
    assert code == 0
    height = json.loads(out)
    code, out, _ = run(capsys, "verify", *point)
    assert code == 0
    verify = json.loads(out)
    assert verify.pop("command") == "verify" and height.pop("command") == "height"
    assert len(verify.pop("checks")) == 6
    assert verify == height


def test_malformed_rational_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "--a", "3", "--x", "0.5", "--y", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_passes(capsys):
    assert run(capsys, "verify", "--a", "3", "--x", "1", "--y", "2")[0] == 0
    assert run(capsys, "verify", "--a", "-2", "--x", "-1", "--y", "1")[0] == 0


def test_oracle_exit_codes(capsys):
    code, out, _ = run(
        capsys, "oracle", "--a", "3", "--x", "1", "--y", "2", "--depth", "6",
        "--tolerance", "1e-3",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "oracle", "--a", "3", "--x", "1", "--y", "2", "--depth", "6",
        "--tolerance", "1e-9",
    )
    assert code == 9


def test_oracle_depth_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--a", "3", "--x", "1", "--y", "2", "--depth", "20"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_extremal_commands(capsys):
    code, out, _ = run(capsys, "extremal", "--family", "lang-neg-3", "--param", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == -6003725 and doc["x"] == "5915"

    code, _, _ = run(capsys, "extremal", "--family", "lang-pos-1", "--param", "1")
    assert code == 7

    code, _, _ = run(capsys, "extremal", "--family", "lang-neg-4", "--param", "3")
    assert code == 8


def test_extremal_certify(capsys):
    code, out, _ = run(
        capsys, "extremal", "--family", "lang-pos-4", "--param", "1", "--certify"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 56628
    lang = next(c for c in doc["checks"] if c["theorem"] == "Lang")
    assert lang["pass"] and 0 < lang["margin"] < 0.1


def test_sweep_csv_and_determinism(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "sweep", "--amin", "-12", "--amax", "12", "--search-bound", "40",
        "--workers", "1", "--out", str(out_path),
    )
    assert code == 0
    text1 = out_path.read_text()
    assert text1.splitlines()[0].startswith("#")
    assert "a,x,y,naive,canonical" in text1

    code, _, _ = run(
        capsys, "sweep", "--amin", "-12", "--amax", "12", "--search-bound", "40",
        "--workers", "1", "--out", str(out_path),
    )
    assert out_path.read_text() == text1


def test_sweep_json_summary(capsys):
    code, out, _ = run(
        capsys, "sweep", "--amin", "2", "--amax", "2", "--search-bound", "30",
        "--workers", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["points_certified"] == 0


def test_help_mentions_normalisation(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "ellheight" in out
