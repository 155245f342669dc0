"""Checks of the benchmark itself; run from the repository root:

    python3 benchmarks/selfcheck.py

1. The tracer leaves no binding of a wrapped function unwrapped in any
   subcart module or class, and restores every binding on exit.
2. Per-layer counts (and ratios of counts) repeat exactly between two
   traced runs of every workload with the same seed, each in a fresh
   process.

The checks do not compare counts with recorded values: optimisations are
meant to lower them.  The file is not named ``test_*`` so that the tier-1
pytest run never collects it or starts a workload.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import run
import tracer

SEED = 7


def check_bindings(subcart) -> list[str]:
    for module in pkgutil.iter_modules(subcart.__path__, "subcart."):
        if not module.name.endswith(".__main__"):  # __main__ runs the CLI
            importlib.import_module(module.name)
    targets = [tracer.target(module, attr) for module, attr, _ in tracer.SPANS + tracer.LEAVES]
    originals = [vars(owner)[name] for owner, name in targets]
    problems = []
    with tracer.Tracer() as t:
        problems += [f"unwrapped while tracing: {ref}" for ref in t.unwrapped_references()]
        for (owner, name), original in zip(targets, originals):
            if vars(owner)[name] is original:
                problems.append(f"not wrapped: {owner.__name__}.{name}")
    for (owner, name), original in zip(targets, originals):
        if vars(owner)[name] is not original:
            problems.append(f"not restored after tracing: {owner.__name__}.{name}")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(Path(run.__file__)), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: a traced run gave a wrong answer")
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if entry["unit"] in ("count", "ratio")
    }


def main() -> int:
    problems = check_bindings(run.import_subcart())
    for workload in run.WORKLOADS:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        for name in sorted(first):
            if first[name] != second.get(name):
                problems.append(f"{workload}: {name} {first[name]} then {second.get(name)}")
        print(f"{workload}: {len(first)} count metrics compared")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
