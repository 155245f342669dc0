"""End-to-end and per-layer benchmark of subcart.

Run from the root of a subcart checkout:

    python3 benchmarks/run.py --workload umbrella-verify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seconds 30      # every workload, one process each

One client calls ``subcart.cli.main`` in this process in a closed loop:
the next call starts when the previous one has returned.  Every input is a
space file generated from a shipped fixture (see ``spec.json``) and every
answer is checked: ``verify`` reports against their recorded SHA-256 and
exit code, ``classify`` answers against the fixture's ``stratify`` report,
``frame`` vectors with ``subcart.is_tangent``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first makes
untraced calls for half the time, then traced calls (see ``tracer.py``)
for the other half, and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(SPEC["workloads"])
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

# One setup sample loads all the space files over and over for at least
# SETUP_BUDGET_S and keeps the mean time of one round.  A single load takes
# milliseconds, and on a shared host the speed of short stretches of time
# swings by up to 2x, so a sample must span many loads.  Samples are taken
# before the first unit and after each unit, so that they spread over the
# run like the calls.
SETUP_BUDGET_S = 0.5
# a fixtures-cli pass makes 22 calls, so 5 passes leave >= 10 beyond p90
MIN_PASSES = 5


def import_subcart():
    """Import subcart from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "subcart" / "cli.py").is_file():
        sys.exit(f"error: no subcart sources under {src}")
    sys.path.insert(0, str(src))
    import subcart
    import subcart.cli
    import subcart.fixtures

    if Path(subcart.__file__).resolve().parent != (src / "subcart").resolve():
        sys.exit(f"error: imported subcart from {subcart.__file__}, not {src}")
    return subcart


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Tally:
    setup_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)  # one per unit
    records: list[int] = field(default_factory=list)  # verified records per unit
    call_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    """Generated inputs and the calls of one workload.

    A unit is one ``verify`` call on a verify workload and one pass over
    the nine fixtures on ``fixtures-cli``.
    """

    def __init__(self, subcart, name: str, seed: int, workdir: Path):
        self.subcart = subcart
        self.name = name
        self.seed = seed
        self.spec = SPEC["workloads"][name]
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.files = self._generate()
        self.spaces = {f: subcart.load_space(p) for f, p in self.files.items()}
        self.references: dict[str, list[dict]] = {}
        self.tracer: tracer.Tracer | None = None  # set while traced units run

    def _generate(self) -> dict[str, Path]:
        files = {}
        for fixture in self.spec["fixtures"]:
            path = self.subcart.fixtures.fixture_path(fixture)
            data = json.loads(path.read_text(encoding="utf-8"))
            if self.spec["resolution"] is not None:
                for sampler in data["samplers"]:
                    sampler["resolution"] = self.spec["resolution"]
            files[fixture] = self.workdir / f"{fixture}.json"
            files[fixture].write_text(json.dumps(data, indent=2), encoding="utf-8")
        return files

    def time_setup(self, tally: Tally) -> None:
        """One setup sample: ``load_space`` of every space file, summed over
        the files and averaged over the rounds made in SETUP_BUDGET_S."""
        total, rounds = 0.0, 0
        while total < SETUP_BUDGET_S:
            for path in self.files.values():
                start = perf_counter()
                self.subcart.load_space(path)
                total += perf_counter() - start
            rounds += 1
        tally.setup_s.append(total / rounds)

    # -- calls -----------------------------------------------------------------

    def call(self, argv: list[str], tally: Tally) -> tuple[int, bytes, float]:
        """One timed in-process CLI call; the report goes to a file."""
        self.report.unlink(missing_ok=True)
        argv = argv + ["--out", str(self.report)]
        op = self.tracer.operation() if self.tracer else contextlib.nullcontext()
        with op, contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = self.subcart.cli.main(argv)
            elapsed = perf_counter() - start
        tally.call_s.append(elapsed)
        tally.attempted += 1
        out = self.report.read_bytes() if self.report.exists() else b""
        return code, out, elapsed

    def checked(self, tally: Tally, check, fixture: str, *args) -> None:
        """Run one call and its check; a mismatch or an exception is a failure."""
        try:
            ok = check(tally, fixture, *args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            tally.failed += 1
            print(f"FAILED: {check.__name__} {fixture} {args}", file=sys.stderr)

    def _verify(self, tally: Tally, fixture: str) -> bool:
        code, out, elapsed = self.call(["verify", str(self.files[fixture])], tally)
        tally.verify_s[-1] += elapsed
        expected = self.spec["verify"][fixture]
        if out:
            tally.records[-1] += json.loads(out)["counts"]["records"]
        return code == expected["exit"] and sha256(out) == expected["sha256"]

    def _classify(self, tally: Tally, fixture: str, record: dict) -> bool:
        point = ",".join(record["point"])
        code, out, _ = self.call(
            ["classify", str(self.files[fixture]), f"--point={point}"], tally
        )
        return code == 0 and json.loads(out) == record

    def _frame(self, tally: Tally, fixture: str, record: dict) -> bool:
        point = ",".join(record["point"])
        code, out, _ = self.call(
            ["frame", str(self.files[fixture]), f"--point={point}"], tally
        )
        if record["label"] == "singular":
            return code == 2  # a frame is refused at a singular anchor
        payload = json.loads(out)
        if code != 0 or payload["anchor"] != record["point"]:
            return False
        space = self.spaces[fixture]
        for evaluation in payload["evaluations"]:
            at = [Fraction(c) for c in evaluation["point"]]
            basis = evaluation["basis"]
            if len(basis) != record["dim"]:
                return False
            for vector in basis:
                if not self.subcart.is_tangent(space, at, [Fraction(c) for c in vector]):
                    return False
        return True

    def prepare(self, tally: Tally) -> None:
        """Stratify reports of fixtures-cli, checked by hash, then used as
        the reference answers for classify and frame."""
        for fixture, expected in self.spec.get("stratify_sha256", {}).items():
            code, out, _ = self.call(["stratify", str(self.files[fixture])], tally)
            if sha256(out) != expected:
                tally.failed += 1
                print(f"FAILED: stratify report of {fixture}", file=sys.stderr)
                continue
            self.references[fixture] = json.loads(out)["records"]
        tally.call_s.clear()  # reference calls are checked, not timed

    def unit(self, k: int, tally: Tally) -> None:
        tally.verify_s.append(0.0)
        tally.records.append(0)
        if self.name != "fixtures-cli":
            (fixture,) = self.spec["fixtures"]
            self.checked(tally, self._verify, fixture)
            return
        rng = random.Random(f"{self.seed}:{k}")
        for fixture in self.spec["fixtures"]:
            self.checked(tally, self._verify, fixture)
            records = self.references.get(fixture)
            if records is None:
                continue  # already counted as failed in prepare
            self.checked(tally, self._classify, fixture, rng.choice(records))
            if fixture in self.spec["frame_fixtures"]:
                self.checked(tally, self._frame, fixture, rng.choice(records))

    def measure(self, seconds: float, tally: Tally) -> list[tuple[int, int]]:
        """Run units until ``seconds`` have passed (at least one unit, and
        MIN_PASSES on fixtures-cli).  Returns each unit's span range."""
        minimum = MIN_PASSES if self.name == "fixtures-cli" else 1
        spans = self.tracer.spans if self.tracer else []
        ranges = []
        self.time_setup(tally)
        start = perf_counter()
        k = 0
        while k < minimum or perf_counter() - start < seconds:
            first = len(spans)
            self.unit(k, tally)
            ranges.append((first, len(spans)))
            self.time_setup(tally)
            k += 1
        return ranges


# -- metrics ---------------------------------------------------------------------


def end_to_end(tally: Tally) -> dict:
    return {
        "setup_s": statistics.median(tally.setup_s),
        "verify_s": statistics.median(tally.verify_s),
        "call_p50_ms": statistics.median(tally.call_s) * 1000,
        "call_p90_ms": quantile(tally.call_s, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def unit_layers(summary: dict, records: int) -> dict:
    """Per-layer metrics of one traced unit."""
    calls = lambda n: summary["calls"].get(n, 0)
    secs = lambda n: summary["seconds"].get(n, 0.0)
    total = summary["total_s"]
    metrics = {
        "stratify.records": records,
        "stratify.sup_distance_calls": calls("stratify.sup_distance"),
        "stratify.sup_distance_s": secs("stratify.sup_distance"),
        "stratify.pairs_per_record": _ratio(calls("stratify.sup_distance"), records),
        "stratify.default_radius_calls": calls("stratify.default_radius"),
        "stratify.stratify_self_s": summary["self_s"].get("stratify.stratify", 0.0),
        "stratify.verify_usc_s": secs("stratify.verify_usc"),
        "stratify.verify_open_s": secs("stratify.verify_open"),
        "stratify.verify_dense_s": secs("stratify.verify_dense"),
        "tangent.jacobian_calls": calls("tangent.jacobian"),
        "tangent.jacobian_s": secs("tangent.jacobian"),
        "tangent.jacobians_per_record": _ratio(calls("tangent.jacobian"), records),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": secs("linalg.rref"),
        "linalg.solve_with_pivots_calls": calls("linalg.solve_with_pivots"),
        "poly.evaluate_calls": calls("poly.evaluate"),
        "poly.partial_calls": calls("poly.partial"),
        "poly.parse_calls": calls("poly.parse"),
        "frames.triviality_s": secs("frames.triviality"),
        "frames.frame_at_calls": calls("frames.frame_at"),
        "frames.common_pivot_calls": calls("frames.common_pivot"),
        "frames.pivot_valid_calls": calls("frames.pivot_valid"),
        "frames.evaluate_calls": calls("frames.evaluate"),
        "frames.evaluations_per_pivot_check": _ratio(
            calls("frames.evaluate"), calls("frames.common_pivot")
        ),
        "space.load_s": secs("space.load"),
        "space.sample_s": secs("space.sample"),
        "space.sample_calls": calls("space.sample"),
        "space.is_member_calls": calls("space.is_member"),
        "cli.emit_s": secs("cli.emit"),
        "cli.call_s": secs("cli.call"),
    }
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(summary["layer_self_s"][layer], total)
    return metrics


def per_layer(spans, ranges, untraced: Tally, traced: Tally) -> dict:
    """Counts and count ratios of the first traced unit (they repeat
    exactly); times and shares as medians over the traced units."""
    units = [
        unit_layers(tracer.summarize(spans, first, stop), records)
        for (first, stop), records in zip(ranges, traced.records)
    ]
    metrics = {
        name: statistics.median(u[name] for u in units)
        if UNITS[name] in ("s", "share") else value
        for name, value in units[0].items()
    }
    metrics["bench.verify_overhead_s"] = (
        statistics.median(traced.verify_s) - statistics.median(untraced.verify_s)
    )
    metrics["bench.call_p50_overhead_ms"] = (
        statistics.median(traced.call_s) - statistics.median(untraced.call_s)
    ) * 1000
    return metrics


# -- running ---------------------------------------------------------------------


def spread(metric: str, values: list[float], what: str) -> str:
    """Median and quartiles of a run's samples, with the sample count."""
    return (
        f"{metric} median {statistics.median(values):.6f} q1 {quantile(values, 25):.6f} "
        f"q3 {quantile(values, 75):.6f} over {len(values)} {what}"
    )


def run_workload(subcart, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(subcart, name, seed, workdir)
        tally = Tally()
        workload.prepare(tally)
        if not trace:
            workload.measure(seconds, tally)
            metrics = end_to_end(tally)
            attempted, failed = tally.attempted, tally.failed
        else:
            traced = Tally()
            workload.measure(seconds / 2, tally)
            with tracer.Tracer() as t:
                workload.tracer = t
                ranges = workload.measure(seconds / 2, traced)
                workload.tracer = None
            metrics = per_layer(t.spans, ranges, tally, traced)
            t.dump(OUT / f"trace-{name}-seed{seed}.jsonl")
            attempted = tally.attempted + traced.attempted
            failed = tally.failed + traced.failed
        print(f"# {name} (untraced): " + "; ".join((
            spread("verify_s", tally.verify_s, "units"),
            spread("setup_s", tally.setup_s, "samples"),
            f"call_s p50 {quantile(tally.call_s, 50):.6f} p90 "
            f"{quantile(tally.call_s, 90):.6f} over {len(tally.call_s)} calls",
        )))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = [m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        sys.exit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's {declared}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>16.6f} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    subcart = import_subcart()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(subcart, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
