"""Pins the answers the benchmark checks, its tracer's hook points and the
package names it calls.

The SHA-256 and exit code of every shipped fixture's ``verify`` and
``stratify`` report, and of the ``verify`` reports of the two scaled
inputs (the Whitney umbrella at resolution 15, the sphere at resolution
11), are the values recorded in ``benchmarks/spec.json`` (with the
``stratify`` exit codes of the same commit), so a change that moves any
answer fails here, in tier 1, not only in the benchmark.  A few ``frame``
and ``classify`` reports are pinned the same way.  The names that
``benchmarks/tracer.py`` wraps must resolve, and those that its per-layer
counters read must count live work: a name that the package stops
calling leaves its counter at 0 without failing any run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import subcart
from subcart.cli import main
from subcart.fixtures import NAMES, fixture_path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# the package names that benchmarks/run.py calls, from ``subcart``
BENCHMARK_CALLS = ("is_tangent", "load_space", "cli.main", "fixtures.fixture_path")

# fixture: (verify exit, verify sha256, stratify exit, stratify sha256)
GOLDEN = {
    "cone": (0, "f7292ed4b676a76f46009121071c78b93a08e40bd0106b44c27fbb4ac9ccbc90",
             0, "42a33b75de780598ff714a84e9e7fadc613158d5fb46bab012d37590a3b07ae2"),
    "sphere": (0, "9ac9b34b0c2a811ebc60b2943466de707f38742b84badd9e727a587f320fc192",
               0, "23bf0ae61efa827c8167a2710b84acca19a5ceb4ffe779aa4bb08931aa9a9763"),
    "coordinate_cross": (
        0, "a85f4ad83bab5c2135a5724500f030ac1b150fa7d23e9fbb9fa62a13657f31eb",
        0, "3f3fd1a407a3390e4a95b74754791feb51fabbff18b1b0ad791f9daa02efdd38"),
    "whitney_umbrella": (
        0, "2138681a04ed86df8318c44a4738ad83e5e0adb4e44672faecd525018d3aa1cc",
        0, "1adf4a22bcc0af92d88a2b45977e7b94c14362d2560d60bac34d5ce36c77b0fb"),
    "half_line": (0, "974f5aede61e51d409012046da002004fb4d54b7869181d6e9b2a4b8742984b6",
                  0, "1d7cf76d268e6f7518f109a1e57e16202fcba5f74588d922f354b8f62ed762cc"),
    "single_point": (
        0, "0ad32d8af513eb4e29c3d6155c61d17410144af8831140b793966a36b50d1514",
        0, "926d6c9362fa597ae2be38bdd3984b6af0a8771de97138b7ac2f8380045e2cd5"),
    "usc_violation": (
        1, "b47e61725b277aef4af07f433e12c4dd708a8af1b7e050cc285aaecf9fe07e66",
        1, "c23228414c2f154a9b695749aaa231ac4d8e575b18850787b30c4585264cfd47"),
    "openness_violation": (
        1, "31fd37fa8d943c91e37daa8d6ac46e420e5d075fad782ff86ea59134dc16dd5d",
        1, "df39ca0c9078e6aca0c5c773e7fd1fc39d56fccceff4b9479736f0c0a95f76ca"),
    "discontinuous_section": (
        1, "e09f49fedfe2f162a42e14dccf217aca01e6559b686dacfbc5e826b1167b7014",
        0, "5b1aa247396b702c283099daf96571816a132a5a868efea6a20b16b3bef92fe7"),
}

# (fixture, sampler resolution): (verify exit, verify sha256)
SCALED_GOLDEN = {
    ("whitney_umbrella", 15): (
        0, "88241c5b83c8183d522963d5474cc909f08ed1f185b72664ccbd1cc6d2cec8f3"),
    ("sphere", 11): (
        0, "1bfd5d551b7b64249056f6910f450036a3a0188dd069fb101d5d326a8e5fce83"),
}

# (command, fixture, --point): sha256 of the report; each exits 0
POINT_GOLDEN = {
    ("frame", "cone", "1,0,1"):
        "3f21b8bf005528751d35a4ea8d48d55f57fb2194fcfe6932b49bf7bfe7800f7c",
    ("frame", "sphere", "0,0,1"):
        "e909581a083fa1e95359388447fdbfbabdc4c79837673d2ce04576022fb984e3",
    ("frame", "whitney_umbrella", "1,1,1"):
        "50ad9e295b035ec9ce0ab5bf0a8aaad8a2e1ee1000e3aee368c8ef6ca456685f",
    ("classify", "cone", "0,0,0"):
        "7297f453d9e803ccbf6fa03e4b385fdbeca0bbbe536fb0f015bbde8ddc856cff",
    ("classify", "cone", "3,4,5"):
        "eefe831cf291817374f534b1cabb505f40485945df959c493413301f006f7e85",
    ("classify", "whitney_umbrella", "0,0,2"):
        "0f54c56cfe2a4c82d343bb2b91f8ba56db9937b8ab58c57aa22edebeaa01f0bd",
}


def test_golden_covers_every_fixture():
    assert set(GOLDEN) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_golden_hashes(name, tmp_path, capsys):
    verify_exit, verify_sha, stratify_exit, stratify_sha = GOLDEN[name]
    for command, exit_code, sha in (
        ("verify", verify_exit, verify_sha),
        ("stratify", stratify_exit, stratify_sha),
    ):
        out = tmp_path / f"{command}.json"
        assert main([command, str(fixture_path(name)), "--out", str(out)]) == exit_code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha, (name, command)
    capsys.readouterr()


@pytest.mark.parametrize("command,name,point", sorted(POINT_GOLDEN))
def test_point_reports_match_golden_hashes(command, name, point, tmp_path, capsys):
    out = tmp_path / f"{command}.json"
    argv = [command, str(fixture_path(name)), "--point", point, "--out", str(out)]
    assert main(argv) == 0
    sha = hashlib.sha256(out.read_bytes()).hexdigest()
    assert sha == POINT_GOLDEN[command, name, point]
    capsys.readouterr()


def _scaled(name, resolution, tmp_path):
    """The fixture's space file with every sampler's resolution rewritten."""
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for sampler in data["samplers"]:
        sampler["resolution"] = resolution
    space = tmp_path / f"{name}.json"
    space.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return space


@pytest.mark.parametrize("name,resolution", sorted(SCALED_GOLDEN))
def test_scaled_reports_match_golden_hashes(name, resolution, tmp_path, capsys):
    # the benchmark's inputs: the fixture with every sampler's resolution
    # rewritten, so the samples spread over many neighbour-index cells
    space = _scaled(name, resolution, tmp_path)
    out = tmp_path / "verify.json"
    exit_code, sha = SCALED_GOLDEN[name, resolution]
    assert main(["verify", str(space), "--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    capsys.readouterr()


def _tracer():
    """``benchmarks/tracer.py``, loaded as a module without running anything."""
    spec = importlib.util.spec_from_file_location("tracer", BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
    for module, attr, name in tracer.SPANS + tracer.LEAVES:
        owner, last = tracer.target(module, attr)
        assert callable(vars(owner).get(last)), (module, attr, name)


def test_traced_names_count_live_work(tmp_path, capsys):
    # one traced operation each: a verify of the umbrella-verify input, a
    # frame of fixtures-cli, and a verify of the cone, whose triviality
    # walk asks for a shared chart where the frozen pivots miss
    tracer = _tracer()
    umbrella = _scaled("whitney_umbrella", 15, tmp_path)
    runs = {
        "umbrella": ["verify", str(umbrella)],
        "frame": ["frame", str(fixture_path("cone")), "--point", "1,0,1"],
        "cone": ["verify", str(fixture_path("cone"))],
    }
    calls = {}
    with tracer.Tracer() as t:
        for key, argv in runs.items():
            first = len(t.spans)
            with t.operation():
                assert main(argv + ["--out", str(tmp_path / f"{key}.json")]) == 0
            calls[key] = tracer.summarize(t.spans, first, len(t.spans))["calls"]
    report = json.loads((tmp_path / "umbrella.json").read_text(encoding="utf-8"))
    assert calls["umbrella"].get("tangent.jacobian") == report["counts"]["records"] == 218
    # the neighbour index takes its default radius once, by a sweep of
    # sup-norm distances
    assert calls["umbrella"].get("stratify.default_radius") == 1
    assert calls["umbrella"].get("stratify.sup_distance", 0) >= 1
    for name in ("frames.frame_at", "frames.pivot_valid", "frames.evaluate"):
        assert calls["frame"].get(name, 0) >= 1, name
    assert calls["cone"].get("frames.common_pivot", 0) >= 1
    capsys.readouterr()


def test_benchmark_calls_resolve():
    # without this, deleting a name the benchmark calls (``is_tangent``
    # checks its ``frame`` answers) passes tier 1 and fails only there
    source = (BENCHMARKS / "run.py").read_text(encoding="utf-8")
    for name in BENCHMARK_CALLS:
        assert f"subcart.{name}(" in source, name
        owner = subcart
        for part in name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
