import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from axheights import bounds, cli
from axheights.cli import main
from axheights.curve import Curve, affine
from axheights.errors import FactorizationBudgetExceeded

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _frozen_run(argv: list[str]) -> dict:
    """argv with its exit code, stdout and stderr, timing lines left out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = "".join(
        line for line in err.getvalue().splitlines(True) if not line.startswith("timing:")
    )
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr}


def _frozen_sweep_argv(workers: str, out_path) -> list[str]:
    """The sweep whose report is committed as tests/data/sweep_m20_20_b30.*"""
    return [
        "sweep", "--amin", "-20", "--amax", "20", "--search-bound", "30",
        "--workers", workers, "--out", str(out_path),
    ]


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
    code, out, err = run(capsys, "classify", "--a", "48", "--strict-minimal")
    assert code == 3
    assert out == ""
    assert err == "error: a = 48 is not fourth-power-free\n"
    code, out, err = run(capsys, "classify", "--a", "48")
    assert code == 0
    assert "minimal model a = 3" in err



def test_classify_rejects_non_prime(capsys):
    for prime in ("1", "0", "4", "-3"):
        code, out, err = run(capsys, "classify", "--a", "12", "--prime", prime)
        assert code == 2
        assert out == ""
        assert err == f"error: {prime} is not prime\n"
    code, out, _ = run(capsys, "classify", "--a", "12", "--prime", "5")
    assert code == 0
    assert "I0" in out

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


def _printed_terms(out: str) -> tuple[float, list[float]]:
    """hhat and the lambda_* values of the text output of height."""
    canonical, terms = None, []
    for line in out.splitlines():
        if line.startswith("canonical height"):
            canonical = float(line.split("= ")[1].split()[0])
        elif line.startswith("  lambda_"):
            value = line.split(": ", 1)[1].split("  [")[0]  # drop the tag
            terms.append(float(value.split(" = ")[-1].split()[0]))
    return canonical, terms


@pytest.mark.parametrize("multiple", [1, 10])
def test_height_text_terms_sum_to_canonical(capsys, multiple):
    # 10P on a = -17 has a 50-digit denominator, beyond the itemised range
    point = Curve(-17).multiply(multiple, affine(-1, 4))
    code, out, _ = run(capsys, "height", "--a", "-17", f"--x={point.x}", f"--y={point.y}")
    assert code == 0
    assert ("lambda_bulk" in out) == (multiple == 10)
    canonical, terms = _printed_terms(out)
    assert math.isclose(math.fsum(terms), canonical, rel_tol=1e-13)


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



def test_negative_fraction_coordinates(capsys):
    code, spaced, _ = run(capsys, "height", "--a", "3", "--x", "1/4", "--y", "-7/8", "--json")
    assert code == 0
    code, joined, _ = run(capsys, "height", "--a", "3", "--x", "1/4", "--y=-7/8", "--json")
    assert code == 0
    assert spaced == joined

def test_malformed_rational_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "--a", "3", "--x", "0.5", "--y", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a library error with no exit code of its own is a usage error too
    code, out, err = run(capsys, "height", "--a", "0", "--x", "1", "--y", "1")
    assert code == 2
    assert out == ""
    assert err == "error: a must be nonzero (a = 0 is singular for heights)\n"


def test_factoring_budget_exits_10(capsys, monkeypatch):
    # a real trigger (a 240-digit semiprime a) takes tens of seconds
    def give_up(curve, point):
        raise FactorizationBudgetExceeded(f"gave up factoring {curve.a}")

    monkeypatch.setattr(cli, "canonical_height", give_up)
    code, out, err = run(capsys, "height", "--a", "3", "--x", "1", "--y", "2")
    assert code == 10
    assert out == ""
    assert err == "error: gave up factoring 3\n"


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


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"search_bound": 2.5}, ["sweep", "--amin", "1", "--amax", "3", "--workers", "1"]),
        ([1, 2], ["sweep", "--amin", "1", "--amax", "3", "--workers", "1"]),
        ({"depth": "6"}, ["oracle", "--a", "3", "--x", "1", "--y", "2"]),
        ({"dept": 6}, ["oracle", "--a", "3", "--x", "1", "--y", "2"]),
    ],
)
def test_invalid_config_exits_2(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid config" in err


def test_config_matches_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"depth": 8}))
    point = ("oracle", "--a", "3", "--x", "1", "--y", "2")
    code, from_config, _ = run(capsys, "--config", str(path), *point)
    assert code == 0
    code, from_flag, _ = run(capsys, *point, "--depth", "8")
    assert code == 0
    assert from_config == from_flag


def test_extremal_commands(capsys):
    code, out, _ = run(capsys, "extremal", "--family", "lang-neg-3", "--param", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == -6003725 and doc["x"] == "5915"

    code, out, err = run(capsys, "extremal", "--family", "lang-pos-1", "--param", "1")
    assert code == 7
    assert out == ""
    assert err == (
        "error: lang-pos-1(a1=1): candidate x = 9265 on a = 1378493025 has no "
        "rational y; re-derive the row in two steps: pick the small square target "
        "x(2P) for this residue class of a mod 16, then solve the halving "
        "quadratics for x(P)\n"
    )

    code, out, err = run(capsys, "extremal", "--family", "lang-neg-4", "--param", "3")
    assert code == 8
    assert out == ""
    assert err == "error: lang-neg-4(n=3): 2*5^2 - z^2 = +-4 has no integer solution\n"



def test_extremal_unknown_family(capsys):
    for family in ("bogus", "lang-pos-x"):
        code, out, err = run(capsys, "extremal", "--family", family, "--param", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: unknown family {family!r}\n"

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


@pytest.mark.parametrize(
    "workers, suffix", [("1", "json"), ("2", "json"), ("1", "csv")]
)
def test_sweep_output_bytes_frozen(tmp_path, capsys, workers, suffix):
    # the committed reports are the reference output: a change to any byte
    # of a sweep report, or a dependence on the worker count, fails here;
    # regenerate them (run this module as a script) only for a deliberate,
    # documented output change
    out_path = tmp_path / f"r.{suffix}"
    code, _, _ = run(capsys, *_frozen_sweep_argv(workers, out_path))
    assert code == 0
    assert out_path.read_bytes() == (DATA / f"sweep_m20_20_b30.{suffix}").read_bytes()


def test_sweep_failing_identity_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "nonarch_sum_identity", lambda curve, point: (False, {2: Fraction(1)}))
    out_path = tmp_path / "r.json"
    code, _, err = run(
        capsys, "sweep", "--amin", "-2", "--amax", "3", "--search-bound", "10",
        "--workers", "1", "--out", str(out_path),
    )
    assert code == 5
    doc = json.loads(out_path.read_text())
    assert doc["rows"]
    for row in doc["rows"]:
        assert not row["sum_identity_ok"] and row["x2p_square_ok"] and not row["all_pass"]
    assert doc["violations"] == [[r["a"], r["x"], "SumIdentity:fail"] for r in doc["rows"]]
    assert err == f"{len(doc['rows'])} bound violations!\n"


def test_sweep_inconclusive_only_exits_6(capsys, monkeypatch):
    certify = bounds._certify

    def widen_lang(curve, point):
        # the same Lang margin, judged against an error bound that covers it
        checks, bd = certify(curve, point)
        return [
            bounds._verdict(c.theorem, c.bound, c.actual, c.margin, abs(c.margin) + 1, c.note)
            if c.theorem == "Lang" else c
            for c in checks
        ], bd

    monkeypatch.setattr(bounds, "_certify", widen_lang)
    code, out, _ = run(
        capsys, "sweep", "--amin", "-2", "--amax", "3", "--search-bound", "10", "--workers", "1",
    )
    assert code == 6
    violations = json.loads(out)["violations"]
    assert violations and {v[2] for v in violations} == {"Lang:inconclusive"}


@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_sweep_unwritable_out_exits_2(tmp_path, capsys, suffix):
    path = tmp_path / "missing" / f"r.{suffix}"
    code, out, err = run(
        capsys, "sweep", "--amin", "1", "--amax", "3", "--search-bound", "5",
        "--workers", "1", "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--a", "3", "--x", "1", "--y", "2", "--json"],
        ["verify", "--a", "3", "--x", "1", "--y", "2"],
        ["sweep", "--amin", "1", "--amax", "3", "--search-bound", "5", "--workers", "1"],
    ],
)
def test_closed_stdout_exits_141(argv):
    # stdout is a pipe whose reader has already gone, as in `axheights ... | head`
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "axheights", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert all(line.startswith("timing:") for line in proc.stderr.splitlines()), proc.stderr


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


def test_cli_output_bytes_frozen():
    # single-point commands replayed against their committed output; rewrite
    # it and the sweep reports (run this module as a script) only for a
    # deliberate, documented output change
    for record in json.loads((DATA / "cli_frozen.json").read_text()):
        assert _frozen_run(record["argv"]) == record, record["argv"]


if __name__ == "__main__":
    # rewrites every frozen data file from the argv its test replays; an argv
    # given after the script name is appended to cli_frozen.json as a record
    path = DATA / "cli_frozen.json"
    argvs = [r["argv"] for r in json.loads(path.read_text())]
    if len(sys.argv) > 1:
        argvs.append(sys.argv[1:])
    records = [_frozen_run(argv) for argv in argvs]
    path.write_text(json.dumps(records, indent=2) + "\n")
    for suffix in ("json", "csv"):
        if main(_frozen_sweep_argv("1", DATA / f"sweep_m20_20_b30.{suffix}")) != 0:
            raise SystemExit(f"the sweep for sweep_m20_20_b30.{suffix} did not exit 0")
