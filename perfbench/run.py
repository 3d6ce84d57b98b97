"""qracsim benchmark: times the reproduction and the table search end to end,
one fresh process per repetition, and checks every output.

Run from the repository root::

    python3 perfbench/run.py --workload {reproduce,search} --seed N --seconds S --trace {0,1}

Workloads (see NOTES.md for why each was chosen):

* ``reproduce``: ``cli.run_reproduction(seed, <temp dir>)``, the paper's
  whole reproduction; every hard check is one operation.
* ``search``: ``codes.search_tables(4, "p_min", 10000, seed)``; the call is
  one operation, checked for a valid table, exactly the budget of
  evaluations, a score at least the built-in table's and equal to a fresh
  evaluation.

Repetitions run sequentially, each in a fresh interpreter started by this
script (``worker.py``), until ``--seconds`` are used, at the BLAS thread
count the environment gives.  ``--trace 0`` prints the medians of the
end-to-end metrics; ``setup_s`` is the median time from starting an
interpreter to having imported ``qracsim.cli``, sampled once before every
repetition.  ``--trace 1`` runs rounds of three repetitions (untraced,
traced at the default thread count, traced at ``OPENBLAS_NUM_THREADS=1``)
and prints the medians of the per-layer metrics.

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment.  A
summary with sample counts and quartiles goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import BLAS1_PREFIX, END_TO_END, LAYER_METRICS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("reproduce", "search")

MIN_REPS = 3
MIN_TRACED_ROUNDS = 2
MIN_SETUP_SAMPLES = 9
HARD_LIMIT_S = 170  # whole run, children included
SLOWDOWN_FACTOR = 10  # a d = 3 call this much slower than the 1-thread median is a slowdown
SETUP_CODE = "import time, qracsim.cli; print(time.perf_counter())"


def child_env(threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + HARD_LIMIT_S

    def _spawn(self, cmd: list[str], env: dict) -> subprocess.CompletedProcess:
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)

    def setup_sample(self, env: dict) -> float:
        """Seconds from starting an interpreter until qracsim.cli is imported."""
        start = time.perf_counter()
        proc = self._spawn([sys.executable, "-c", SETUP_CODE], env)
        if proc.returncode != 0:
            raise RuntimeError(f"importing qracsim failed:\n{proc.stderr}")
        # perf_counter is the system-wide monotonic clock, shared with the child
        return float(proc.stdout.split()[-1]) - start

    def repetition(self, env: dict, traced: bool) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--trace", str(int(traced)), "--workdir", str(WORKDIR),
        ]  # fmt: skip
        try:
            proc = self._spawn(cmd, env)
        except subprocess.TimeoutExpired:
            return {"ok": False, "attempted": 1, "failed": 1, "problems": ["repetition timed out"]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return {"ok": False, "attempted": 1, "failed": 1, "problems": tail}
        return json.loads(lines[-1])

    def rounds(self, seconds: float, kinds: list[tuple[bool, int | None]], min_rounds: int, setup: bool):
        """Rounds of one repetition per (traced, BLAS threads) kind, in turn, until
        ``seconds`` are used; alternating keeps slow drift of the machine out of
        the comparison between kinds.  Returns (records per kind, setup samples)."""
        envs = [child_env(threads) for _, threads in kinds]
        end = time.perf_counter() + seconds
        records: list[list[dict]] = [[] for _ in kinds]
        setups, took = [], []
        while len(took) < min_rounds or time.perf_counter() + statistics.median(took) <= end:
            if time.perf_counter() >= self.deadline:
                break
            start = time.perf_counter()
            if setup:
                setups.append(self.setup_sample(envs[0]))
            for (traced, _), env, recs in zip(kinds, envs, records):
                recs.append(self.repetition(env, traced))
            took.append(time.perf_counter() - start)
        while setup and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(self.setup_sample(envs[0]))
        return records, setups


def nproc() -> int:
    """Cores this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _median(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def end_to_end(records: list[dict], setups: list[float]) -> dict[str, float]:
    ok = [r for r in records if r["ok"]]
    return {
        "wall_s": _median(ok, lambda r: r["wall_s"]),
        "setup_s": statistics.median(setups),
        "cpu_s": _median(ok, lambda r: r["cpu_s"]),
        "peak_rss_mib": _median(ok, lambda r: r["peak_rss_mib"]),
        "evals_per_s": _median(ok, lambda r: r["evals"] / r["wall_s"]),
    }


def per_layer(untraced: list[dict], traced: list[dict], traced1: list[dict]) -> dict[str, float]:
    ok, ok1 = [r for r in traced if r["ok"]], [r for r in traced1 if r["ok"]]
    values = {}
    for prefix, recs in (("", ok), (BLAS1_PREFIX, ok1)):
        for name, _ in LAYER_METRICS:
            values[prefix + name] = _median(recs, lambda r: r["layers"][name])
    base = [r for r in untraced if r["ok"]]
    values["trace.overhead_s"] = _median(ok, lambda r: r["wall_s"]) - _median(base, lambda r: r["wall_s"])
    d3_single = [t for r in ok1 for t in r["d3_calls_s"]]
    d3_default = [t for r in ok for t in r["d3_calls_s"]]
    values["trace.d3_slowdown_seen"] = int(
        bool(d3_single) and any(t > SLOWDOWN_FACTOR * statistics.median(d3_single) for t in d3_default)
    )
    every = untraced + traced + traced1
    values["fail_frac"] = sum(r["failed"] for r in every) / sum(r["attempted"] for r in every)
    values["env.blas_threads"] = ok[0]["environment"]["blas_threads"] or 0
    values["env.nproc"] = nproc()
    values["env.src_lines"] = src_lines()
    return values


def result(records: list[dict], metrics: dict[str, float], units: dict[str, str]) -> dict:
    """The result line: operations attempted and failed over all repetitions, and the metrics."""
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _summary(label: str, records: list[dict], setups: list[float]) -> str:
    ok = [r for r in records if r["ok"]]
    lines = [f"{label}: {len(records)} repetitions, {len(records) - len(ok)} failed to run"]
    series = {"wall_s": [r["wall_s"] for r in ok], "cpu_s": [r["cpu_s"] for r in ok], "setup_s": setups}
    for name, xs in series.items():
        if len(xs) >= 2:
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            lines.append(f"  {name}: n={len(xs)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f}")
    for r in records:
        for problem in r.get("problems", []):
            lines.append(f"  FAILED: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    if not (SRC / "qracsim" / "__init__.py").is_file():
        sys.stderr.write(f"no qracsim sources under {SRC}; run from a qracsim checkout\n")
        return 2

    runner = Runner(args.workload, args.seed)
    WORKDIR.mkdir(exist_ok=True)
    try:
        runner.setup_sample(child_env(None))  # warm-up: byte-code compilation and file cache
        if args.trace:
            kinds = [(False, None), (True, None), (True, 1)]
            (untraced, traced, traced1), _ = runner.rounds(args.seconds, kinds, MIN_TRACED_ROUNDS, setup=False)
            records = untraced + traced + traced1
            sys.stderr.write(_summary("untraced", untraced, []) + "\n")
            sys.stderr.write(_summary("traced", traced, []) + "\n")
            sys.stderr.write(_summary("traced, OPENBLAS_NUM_THREADS=1", traced1, []) + "\n")
            phases_ok = all(any(r["ok"] for r in recs) for recs in (untraced, traced, traced1))
            metrics = per_layer(untraced, traced, traced1) if phases_ok else None
            units = dict(PER_LAYER)
        else:
            (records,), setups = runner.rounds(args.seconds, [(False, None)], MIN_REPS, setup=True)
            sys.stderr.write(_summary(args.workload, records, setups) + "\n")
            metrics = end_to_end(records, setups) if any(r["ok"] for r in records) else None
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if metrics is None:
        sys.stderr.write("no repetition completed; no metrics to report\n")
        return 1
    ok = [r for r in records if r["ok"]]
    env = ok[0]["environment"]
    env.update(
        nproc=nproc(),
        src_lines=src_lines(),
        seed=args.seed,
        workload=args.workload,
        blas_threads_per_repetition=sorted({r["environment"]["blas_threads"] for r in ok}, key=str),
        repetitions=len(records),
    )
    print(json.dumps({"environment": env}))
    print(json.dumps(result(records, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
