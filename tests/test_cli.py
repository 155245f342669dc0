import gc
import json
import subprocess
import sys
import time

import pytest

from subcart.cli import main
from subcart.fixtures import NAMES, fixture_path

POSITIVE = (
    "cone",
    "sphere",
    "coordinate_cross",
    "whitney_umbrella",
    "half_line",
    "single_point",
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "subcart", *argv],
        capture_output=True,
        text=True,
    )


def test_all_fixtures_load():
    for name in NAMES:
        assert fixture_path(name).exists()


def test_classify_cone_apex(capsys):
    code, out, _ = run_cli(
        ["classify", str(fixture_path("cone")), "--point", "0,0,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"point": ["0", "0", "0"], "dim": 3, "label": "singular"}


def test_classify_smooth_point(capsys):
    code, out, _ = run_cli(
        ["classify", str(fixture_path("cone")), "--point", "1,0,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["label"] == "regular"


def test_classify_non_member_exits_2(capsys):
    code, _, err = run_cli(
        ["classify", str(fixture_path("cone")), "--point", "1,1,1"], capsys
    )
    assert code == 2
    assert "not a member" in err


def test_classify_bad_point_syntax_exits_2(capsys):
    code, _, err = run_cli(
        ["classify", str(fixture_path("cone")), "--point", "1,zero,0"], capsys
    )
    assert code == 2


def test_stratify_cone_report(capsys):
    code, out, err = run_cli(["stratify", str(fixture_path("cone"))], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 41
    labels = [r["label"] for r in data["records"]]
    assert labels.count("singular") == 1
    assert all(v["pass"] for v in data["verdicts"].values())
    assert "records: 41" in err


def test_verify_exit_codes():
    for name in POSITIVE:
        result = run_subprocess(["verify", str(fixture_path(name))])
        assert result.returncode == 0, (name, result.stderr)
    for name, failing in (
        ("usc_violation", "usc"),
        ("openness_violation", "open"),
        ("discontinuous_section", "local_triviality"),
    ):
        result = run_subprocess(["verify", str(fixture_path(name))])
        assert result.returncode == 1, (name, result.stderr)
        verdicts = json.loads(result.stdout)["verdicts"]
        assert not verdicts[failing]["pass"]
        others = {k: v["pass"] for k, v in verdicts.items() if k != failing}
        assert all(others.values()), (name, verdicts)


def test_verify_report_shape(capsys):
    code, out, _ = run_cli(["verify", str(fixture_path("sphere"))], capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"space", "verdicts", "params", "counts", "caveats"}
    assert set(data["verdicts"]) == {"usc", "open", "dense", "local_triviality"}
    assert data["counts"] == {"records": 25, "regular": 25, "singular": 0}


def test_frame_dump(capsys):
    code, out, _ = run_cli(
        ["frame", str(fixture_path("cone")), "--point", "1,0,1"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["anchor"] == ["1", "0", "1"]
    assert data["pivots"] == [1]
    assert data["free"] == [2, 3]
    assert data["evaluations"]
    for entry in data["evaluations"]:
        basis = entry["basis"]
        assert len(basis) == 2
        assert [v[1] for v in basis] == ["1", "0"]
        assert [v[2] for v in basis] == ["0", "1"]


def test_frame_on_singular_anchor_exits_2(capsys):
    code, _, err = run_cli(
        ["frame", str(fixture_path("cone")), "--point", "0,0,0"], capsys
    )
    assert code == 2
    assert "singular" in err


def test_frame_across_branches_exits_2(capsys):
    code, _, err = run_cli(
        ["frame", str(fixture_path("discontinuous_section")), "--point", "1/4,0"],
        capsys,
    )
    assert code == 2
    assert "common pivot" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["verify", "/nonexistent/zilch.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_malformed_file_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"name": "bad", "ambient_dim": 3, "equations": ["x4"]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "equations[0]" in err


def test_non_array_list_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"name": "bad", "ambient_dim": 3, "equations": 5}),
        encoding="utf-8",
    )
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "$.equations: expected list, got int" in err


def test_oversized_sampler_grid_exits_2(tmp_path, capsys):
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["samplers"][0]["resolution"] = 317  # 100,489 grid points
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run_cli(["verify", str(big)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "samplers[0].resolution" in err


def test_out_writes_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["stratify", str(fixture_path("sphere")), "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["space"] == "sphere"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--point", "1,0,1"],
        ["stratify"],
        ["frame", "--point", "1,0,1"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_2(argv, where, tmp_path, capsys):
    # exit 1 means a verdict failed; a report that cannot be written is
    # an input error, and it was a traceback
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    command, *options = argv
    code, out, err = run_cli(
        [command, str(fixture_path("cone")), *options, "--out", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --out: cannot write {target}: ")
    assert "Traceback" not in err


def test_misspelt_field_exits_2(tmp_path, capsys):
    # with "inequality" dropped, the half line sampled on [-2, 2] verified
    # five regular records and exited 0
    data = {
        "name": "half",
        "ambient_dim": 1,
        "inequality": [{"poly": "x1", "strict": True}],
        "samplers": [
            {"param_dim": 1, "numerators": ["x1"], "box": [["-2", "2"]], "resolution": 5}
        ],
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: $.inequality: unknown field\n")


def test_radius_and_epsilon_overrides(capsys):
    code, out, _ = run_cli(
        [
            "stratify",
            str(fixture_path("coordinate_cross")),
            "--radius",
            "1/4",
            "--epsilon",
            "1/4",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"radius": "1/4", "epsilon": "1/4"}
    assert all(v["pass"] for v in data["verdicts"].values())


def test_reports_are_byte_identical_across_runs():
    for name in ("cone", "usc_violation"):
        first = run_subprocess(["verify", str(fixture_path(name))])
        second = run_subprocess(["verify", str(fixture_path(name))])
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--point", "0,0,0", "--radius=-1"],
        ["stratify", "--radius=-1"],
        ["stratify", "--epsilon=-1/2"],
        ["frame", "--point", "1,0,1", "--radius=-1"],
        ["verify", "--radius=-1"],
        ["verify", "--epsilon=-1"],
    ],
)
def test_negative_radius_or_epsilon_exits_2(argv, capsys):
    command, *options = argv
    code, out, err = run_cli([command, str(fixture_path("cone")), *options], capsys)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--point", "0,0,0", "--radius="],
        ["stratify", "--radius="],
        ["stratify", "--epsilon="],
        ["frame", "--point", "1,0,1", "--radius="],
        ["verify", "--radius="],
        ["verify", "--epsilon="],
    ],
)
def test_empty_radius_or_epsilon_exits_2(argv, capsys):
    command, *options = argv
    code, out, err = run_cli([command, str(fixture_path("cone")), *options], capsys)
    assert code == 2
    assert out == ""
    assert "rational literal" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--radius="], "--radius"),
        (["stratify", "--epsilon=1/0"], "--epsilon"),
        (["classify", "--point", "1,0,x"], "--point coordinate 3"),
        (["frame", "--point", "1,,1"], "--point coordinate 2"),
    ],
)
def test_option_errors_name_their_option(argv, option, capsys):
    command, *options = argv
    code, out, err = run_cli([command, str(fixture_path("cone")), *options], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option}: expected a rational literal")


@pytest.mark.parametrize(
    "text, where",
    [
        (
            json.dumps(
                {"name": "deep", "ambient_dim": 1, "equations": ["(" * 250 + "x1" + ")" * 250]}
            ),
            "error: equations[0]: more than 100 nested parentheses",
        ),
        ("[" * 100_000, "error: $: invalid JSON"),
    ],
)
def test_deep_nesting_exits_2(text, where, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(where)


def test_oversized_power_exits_2_fast(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"name": "big", "ambient_dim": 1, "equations": ["(x1+1)^400000"]}),
        encoding="utf-8",
    )
    # a subprocess with a timeout, so that a parser without the degree cap
    # fails here instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "subcart", "verify", str(big)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "equations[0]: degree 400000 is above 64" in proc.stderr


@pytest.mark.parametrize(
    "data",
    [
        {"name": "wide", "ambient_dim": 20_000_000, "equations": ["x1"]},
        {
            "name": "wide",
            "ambient_dim": 18,
            "equations": [f"x{i}" for i in range(1, 10)],
            "sample_points": [["0"] * 18, ["0"] * 17 + ["1/2"], ["0"] * 17 + ["2"]],
        },
    ],
    ids=["huge", "many-charts"],
)
def test_oversized_ambient_dim_exits_2_fast(data, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == ""
    assert err.startswith("error: $.ambient_dim: must be at most 12")


def test_calls_leave_no_parser_garbage(tmp_path, capsys):
    argv = ["verify", str(fixture_path("single_point")), "--out", str(tmp_path / "r.json")]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            assert main(argv) == 0
        gc.collect()
        parser_garbage = sum(type(o).__module__ == "argparse" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert parser_garbage == 0


def test_frame_refuses_a_singular_anchor_that_is_not_a_sample(capsys):
    umbrella = str(fixture_path("whitney_umbrella"))
    code, out, _ = run_cli(["classify", umbrella, "--point", "0,0,2"], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "singular"
    code, _, err = run_cli(["frame", umbrella, "--point", "0,0,2"], capsys)
    assert code == 2
    assert "singular" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--point", "0,0,0", "--radius=0"],
        ["stratify", "--radius=0"],
        ["frame", "--point", "1,0,1", "--radius=0"],
        ["verify", "--radius=0"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_radius_exits_2(argv, capsys):
    # within radius 0 every cone sample would be alone, so every label
    # would rest on no neighbour evidence
    command, *options = argv
    code, out, err = run_cli([command, str(fixture_path("cone")), *options], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: radius must be positive, got 0\n"


def test_zero_radius_is_the_default_over_one_sample(capsys):
    path = str(fixture_path("single_point"))
    assert run_cli(["verify", path, "--radius=0"], capsys) == run_cli(["verify", path], capsys)


def test_zero_epsilon_fails_dense_on_the_cone(capsys):
    code, out, _ = run_cli(["verify", str(fixture_path("cone")), "--epsilon=0"], capsys)
    assert code == 1
    verdicts = json.loads(out)["verdicts"]
    assert [name for name, v in verdicts.items() if not v["pass"]] == ["dense"]


@pytest.mark.parametrize("radius", ["1/100"])
def test_vacuous_radius_is_a_caveat(radius, capsys):
    # every cone sample is alone within the radius: the apex comes out
    # regular and every verdict passes, on no neighbour evidence at all
    code, out, _ = run_cli(
        ["verify", str(fixture_path("cone")), f"--radius={radius}"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["singular"] == 0
    assert data["caveats"] == [
        f"41 of 41 records have no other sample within radius {radius}: "
        "their labels rest on no neighbour evidence"
    ]


def test_frame_at_a_non_member_exits_2(capsys):
    code, out, err = run_cli(
        ["frame", str(fixture_path("cone")), "--point", "1,1,1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "not a member" in err


def test_constraints_past_the_term_cap_exit_2(tmp_path, capsys):
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["equations"] = [f"(x1^2+x2^2-x3^2)*(x1+x2+x3+{j})^14" for j in range(1, 5)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["verify", str(big)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: equations: ")


def _long_integers(kind):
    """(space file text, argv after its path) of a small file whose answer
    holds, or whose text is, an integer longer than the interpreter turns
    into text or back (4,300 digits by default)."""
    big = 10**999
    if kind == "json":  # ambient_dim has 5,001 digits
        return '{"name": "long", "ambient_dim": 1' + "0" * 5000 + "}", ["verify"]
    if kind in ("verify", "stratify"):  # the grid image (1/(10^998 + 7))^5
        data = {"name": "long", "ambient_dim": 1, "samplers": [{
            "param_dim": 1, "numerators": ["x1^5"],
            "box": [["0", f"1/{big // 10 + 7}"]], "resolution": 2,
        }]}
        return json.dumps(data), [kind]
    # frame: the basis at the second point has entries of 6,000 digits
    data = {
        "name": "long", "ambient_dim": 3, "equations": ["x2 - x1^6 + x3^6"],
        "sample_points": [[str(big), "0", str(big)], [str(big + 1), "0", str(big + 1)]],
    }
    return json.dumps(data), ["frame", "--radius=2", "--point", f"{big},0,{big}"]


@pytest.mark.parametrize("kind", ["json", "verify", "stratify", "frame"])
def test_integers_too_long_to_print_exit_2_without_a_traceback(kind, tmp_path):
    text, argv = _long_integers(kind)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    command, *options = argv
    proc = run_subprocess([command, str(path), *options])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    limit = sys.get_int_max_str_digits()
    if kind == "json":
        assert line.startswith(f"error: $: invalid JSON: Exceeds the limit ({limit} digits)")
    else:
        assert line == f"error: a rational has more than {limit} digits to print"
