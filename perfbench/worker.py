"""One repetition of a benchmark workload, in the interpreter that runs it.

``run.py`` starts this script once per repetition, in a fresh process, so
every repetition pays the cold caches and BLAS thread start-up a CLI user
pays.  By hand, from the repository root::

    PYTHONPATH=src python3 perfbench/worker.py --workload search --seed 1 --trace 0 --workdir .perfbench_work

The last line of standard output is one JSON record: the operations
attempted and failed with the reasons, ``wall_s`` (first call into qracsim
until the last returns), ``cpu_s`` and ``peak_rss_mib`` of this process,
the evaluations completed, the BLAS thread count in effect and, with
``--trace 1``, the per-layer metrics of ``metrics.LAYER_METRICS``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qracsim import bounds, cli, codes, qracse, teleport
from metrics import DENSE_DIMS, PROTOCOL_DIMS, TELEPORT_DIMS
from spans import Tracer

SEARCH_D = 4
SEARCH_BUDGET = 10_000


def search_floor() -> float:
    """The built-in d = 4 table's p_min, which a search result must reach."""
    return qracse.run_protocol(qracse.QracTask(d=SEARCH_D, table=codes.builtin_table(SEARCH_D))).p_min


def _openblas(name: str, restype):
    """Call ``openblas_<name>`` in the OpenBLAS numpy loaded; None if it cannot be found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def environment() -> dict:
    """Python, numpy and BLAS versions and the BLAS thread count in effect."""
    config = _openblas("get_config", ctypes.c_char_p)
    if config is None:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    else:
        config = config.decode()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": config,
        "blas_threads": _openblas("get_num_threads", ctypes.c_int),
    }


# ---------------------------------------------------------------- workloads
# run(seed, workdir, **size) -> (wall_s, evals, payload)
# check(payload) -> (operations attempted, operations failed, problems)


def _run_reproduce(seed: int, workdir: Path):
    out = Path(tempfile.mkdtemp(dir=workdir))
    try:
        start = time.perf_counter()
        checks, _ = cli.run_reproduction(seed, out)
        wall = time.perf_counter() - start
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)
    return wall, len(checks), {"checks": checks, "artifact_bytes": artifact_bytes}


def _check_reproduce(payload):
    checks = payload["checks"]
    failed = [c["name"] for c in checks if c["kind"] == cli.HARD and c["status"] == "fail"]
    return len(checks), len(failed), failed


def _run_search(seed: int, workdir: Path, budget=SEARCH_BUDGET):
    start = time.perf_counter()
    result = codes.search_tables(SEARCH_D, "p_min", budget, seed)
    wall = time.perf_counter() - start
    return wall, result.evaluations, {"result": result, "budget": budget}


def _check_search(payload):
    result, budget = payload["result"], payload["budget"]
    problems = []
    if not codes.validate(result.table).valid:
        problems.append("search returned an invalid table")
    if result.evaluations != budget:
        problems.append(f"search made {result.evaluations} evaluations, budget {budget}")
    floor = search_floor()
    if result.score < floor:
        problems.append(f"search score {result.score!r} below the built-in table's {floor!r}")
    fresh = qracse.run_protocol(qracse.QracTask(d=SEARCH_D, table=result.table)).p_min
    if fresh != result.score:
        problems.append(f"search score {result.score!r} differs from a fresh evaluation {fresh!r}")
    return 1, int(bool(problems)), problems


WORKLOADS = {
    "reproduce": (_run_reproduce, _check_reproduce),
    "search": (_run_search, _check_search),
}


# ---------------------------------------------------------------- tracing


def _install(tracer: Tracer):
    def asym_info(args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        return {"n": spec.n, "d": spec.d, "p0": spec.probabilities[0], "value": result.value}

    tracer.wrap(cli, "run_reproduction")
    tracer.wrap(bounds, "asym_optimize", asym_info)
    tracer.wrap(bounds, "kay_feasibility_scan", lambda a, kw, r: {"states": r.n_states, "min_residual": r.min_residual})
    tracer.wrap(teleport, "constrained_teleport_fidelity", lambda a, kw, r: {"d": r.details["d"], "k": r.details["k"]})
    tracer.wrap(teleport, "composite_nsqrac_via_qracse")
    tracer.wrap(
        qracse,
        "run_protocol",
        lambda a, kw, r: {"d": r.d, "norm_err": r.details.get("outcome_normalisation_error", 0.0)},
    )
    tracer.wrap(codes, "search_tables", lambda a, kw, r: {"evaluations": r.evaluations})


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict[str, float]:
    """Every metric of metrics.LAYER_METRICS from one repetition's spans; 0 where a layer is not called."""
    m: dict[str, float] = {}

    def total(spans):
        return sum(s.duration for s in spans)

    m["cli.run_reproduction.self_s"] = sum(tracer.self_time(s) for s in tracer.named("cli.run_reproduction"))
    m["cli.artifact_bytes"] = artifact_bytes

    asym = tracer.named("bounds.asym_optimize")
    m["bounds.asym_optimize.calls"] = len(asym)
    m["bounds.asym_optimize.total_s"] = total(asym)
    m["bounds.asym_optimize.max_gap"] = max(
        (abs(bounds.asym_closed_form_n2(s.info["p0"], s.info["d"]) - s.info["value"]) for s in asym if s.info["n"] == 2),
        default=0.0,
    )

    kay = tracer.named("bounds.kay_feasibility_scan")
    m["bounds.kay_feasibility_scan.total_s"] = total(kay)
    m["bounds.kay_feasibility_scan.states"] = sum(s.info["states"] for s in kay)
    m["bounds.kay.min_residual"] = min((s.info["min_residual"] for s in kay), default=0.0)

    fidelity = tracer.named("teleport.constrained_teleport_fidelity")
    for d in TELEPORT_DIMS:
        calls = [s for s in fidelity if s.info["d"] == d]
        m[f"teleport.fidelity.d{d}.calls"] = len(calls)
        m[f"teleport.fidelity.d{d}.total_s"] = total(calls)
        m[f"teleport.fidelity.d{d}.max_s"] = max((s.duration for s in calls), default=0.0)
    for d in DENSE_DIMS:
        outcomes = sum(s.info["k"] for s in fidelity if s.info["d"] == d)
        # per outcome: 3 complex n x n matmuls (8 n^3 real flops each), each
        # reading two and writing one dense n x n complex128 operand, n = d^4
        flops = 24 * outcomes * d**12
        m[f"teleport.dense.d{d}.flops_computed"] = flops
        m[f"teleport.dense.d{d}.bytes_computed"] = 9 * 16 * outcomes * d**8
        busy = m[f"teleport.fidelity.d{d}.total_s"]
        m[f"teleport.dense.d{d}.gflop_per_s"] = flops / busy / 1e9 if busy else 0.0

    m["teleport.composite_cross_check.self_s"] = sum(
        tracer.self_time(s) for s in tracer.named("teleport.composite_nsqrac_via_qracse")
    )

    protocol = tracer.named("qracse.run_protocol")
    durations = [s.duration for s in protocol]
    m["qracse.run_protocol.calls"] = len(protocol)
    m["qracse.run_protocol.total_s"] = total(protocol)
    m["qracse.run_protocol.p50_us"] = float(np.percentile(durations, 50)) * 1e6 if durations else 0.0
    m["qracse.run_protocol.p99_us"] = float(np.percentile(durations, 99)) * 1e6 if durations else 0.0
    for d in PROTOCOL_DIMS:
        first = next((s for s in protocol if s.info["d"] == d), None)
        m[f"qracse.run_protocol.d{d}.first_s"] = first.duration if first else 0.0
    m["qracse.max_normalisation_error"] = max((s.info["norm_err"] for s in protocol), default=0.0)

    search = tracer.named("codes.search_tables")
    m["codes.search_tables.self_s"] = sum(tracer.self_time(s) for s in search)
    m["codes.search_tables.evaluations"] = sum(s.info["evaluations"] for s in search)
    return m


# ---------------------------------------------------------------- one repetition


def run_rep(workload: str, seed: int, traced: bool, workdir: Path, **size) -> dict:
    """Run, time and check one repetition; failures are counted, never dropped."""
    run, check = WORKLOADS[workload]
    tracer = Tracer()
    if traced:
        _install(tracer)
    try:
        with tracer:
            wall, evals, payload = run(seed, workdir, **size)
    except Exception as exc:  # the whole call raised: one failed operation
        return {"ok": False, "attempted": 1, "failed": 1, "problems": [f"{workload} raised {exc!r}"]}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    attempted, failed, problems = check(payload)
    record = {
        "ok": True,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "wall_s": wall,
        "evals": evals,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "environment": environment(),
    }
    if traced:
        record["layers"] = layer_metrics(tracer, payload.get("artifact_bytes", 0))
        record["d3_calls_s"] = [
            s.duration for s in tracer.named("teleport.constrained_teleport_fidelity") if s.info["d"] == 3
        ]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import qracsim

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(qracsim.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"qracsim was imported from {qracsim.__file__}, not from {src}\n")
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run_rep(args.workload, args.seed, bool(args.trace), args.workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
