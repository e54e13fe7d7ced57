"""The fanfree benchmark: one workload, one measured run, checked outputs.

    python3 perfbench/run.py --workload certify-n8|enumerate-n8|stream-mixed
                             --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the repository
root; layers.json beside this file maps each per-layer metric to the
end-to-end metric it should move and lists the inputs left out.

The timed work runs in a fresh worker process (worker.py) that imports
fanfree from src/.  With --trace 0 the last line of standard output holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
traced passes, which follow untraced passes in the same worker so that
the tracing overhead can be reported.  Every timing is normalised to a
fixed machine speed by the reference-loop samples of speed.py, which
explains why.  Outputs are checked after the timed interval against
reference code (oracle.py) and pinned results; a wrong output makes the
run exit 1.  A call that raises is a failure, counted in ``failed``, and
is never retried or dropped.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170
STREAM_BLOCKS = 2
SETUP_IMPORTS = 7
EIGEN_TOL = 1e-9  # Tolerances.eigen at the seed
EXPECTED_CERTIFY = HERE / "expected" / "certify-n8.json"
CERTIFY_EXCLUDED = ("elapsed", "stats", "proof")
ENUMERATE_N8 = {"lines": 12346, "bytes": 86422,
                "sha256": "4fed1af583c626faf9e832a5ec677004651e18d7ee777a1a8be50b0cee9ba321"}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_program():
    """Import fanfree from src/ into this process, for checks only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fanfree
    return fanfree


# -- environment ----------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
    }


# -- measurement ----------------------------------------------------------


def measure_setup() -> float:
    """Median normalised time to import fanfree.cli in a fresh process,
    after one untimed import that leaves the bytecode cache filled.  Each
    import is normalised by reference-loop samples taken just after it in
    the same process; speed.py is imported after the timed import, which
    then still pays for numpy."""
    code = ("import sys, time; t = time.perf_counter(); import fanfree.cli; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import speed; "
            "r = (speed.reference_loop() + speed.reference_loop()) / 2; "
            "print(repr(speed.normalise(t, r)))")
    times = []
    for _ in range(1 + SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=program_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(10.0, deadline - time.monotonic() - 20)
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(result_path)], env=program_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(result_path.read_text())


# -- checks ---------------------------------------------------------------
#
# Each check returns a list of problems; an empty list means the output is
# correct.


def strip_certificate(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in CERTIFY_EXCLUDED}


def check_certify(text: str) -> list[str]:
    payload = json.loads(text)
    problems = []
    if text != json.dumps(payload, indent=2) + "\n":
        problems.append("certificate is not the indent-2 JSON the seed emits")
    expected = EXPECTED_CERTIFY.read_text()
    if json.dumps(strip_certificate(payload), indent=2) + "\n" != expected:
        problems.append("certificate differs from the seed's (elapsed, stats and proof excluded)")
    n, adj = oracle.graph6_decode(payload["winner"])
    # on 8 vertices, degrees 7,7,2,2,2,2,2,2 force S(8,2): the two full
    # vertices take up every edge of the other six
    if n != 8 or sorted(row.bit_count() for row in adj) != [2] * 6 + [7] * 2:
        problems.append(f"winner {payload['winner']} is not S(8,2)")
    exact = oracle.signless_q1(n, adj)
    closed = load_program().q1_split_closed_form(8, 2)
    for name, value in (("eigvalsh", exact), ("q1_split_closed_form", closed)):
        if abs(payload["winner_q1"] - value) > EIGEN_TOL:
            problems.append(f"winner_q1 {payload['winner_q1']} differs from {name} {value}")
    return problems


def check_enumerate(data: bytes) -> list[str]:
    problems = []
    lines = data.decode("ascii").splitlines()
    if len(lines) != ENUMERATE_N8["lines"]:
        problems.append(f"{len(lines)} lines, expected {ENUMERATE_N8['lines']}")
    for line in lines:
        try:
            n, _ = oracle.graph6_decode(line)
        except (ValueError, IndexError) as exc:
            problems.append(f"line {line!r} does not decode: {exc}")
            break
        if n != 8:
            problems.append(f"line {line!r} has order {n}")
            break
    if len(data) != ENUMERATE_N8["bytes"] or \
            hashlib.sha256(data).hexdigest() != ENUMERATE_N8["sha256"]:
        problems.append(f"output ({len(data)} bytes) differs from the seed's")
    return problems


def check_graph(item: dict, out: dict, fanfree) -> list[str]:
    """Check the outputs of the calls that returned on one stream graph."""
    n, adj = oracle.graph6_decode(item["g6"])
    problems = []
    if "graph" not in out["errors"] and out["adj"] != adj:
        problems.append("graph6_decode gave a different graph")
    if "encoded" in out and out["encoded"] != item["g6"]:
        problems.append(f"graph6 round trip gave {out['encoded']}")
    if "q1" in out:
        exact = oracle.signless_q1(n, adj)
        if abs(out["q1"] - exact) > EIGEN_TOL:
            problems.append(f"q1 {out['q1']!r} differs from eigvalsh {exact!r}")
    if "fan_free_2" in out and out["fan_free_2"] != (oracle.fan_centre(n, adj, 2) is None):
        problems.append(f"is_fan_free(g, 2) returned {out['fan_free_2']}")
    if "fan_3" in out:
        centre = oracle.fan_centre(n, adj, 3)
        fan = out["fan_3"]
        if fan is None or centre is None:
            if fan is not None or centre is not None:
                problems.append(f"contains_fan(g, 3) returned {fan}, brute force centre {centre}")
        else:
            used = [v for pair in fan[1] for v in pair]
            if (fan[0] != centre or len(fan[1]) != 3 or len(set(used)) != 6
                    or any(tuple(p) not in oracle.neighbourhood_edges(n, adj, centre)
                           for p in fan[1])):
                problems.append(f"contains_fan(g, 3) witness {fan} is wrong "
                                f"(smallest centre {centre})")
    if "merris" in out:
        best, attained = oracle.merris_max(n, adj)
        value, vertex = out["merris"]
        if abs(value - float(best)) > EIGEN_TOL or vertex not in attained:
            problems.append(f"merris_bound {out['merris']} differs from max {float(best)} "
                            f"at {sorted(attained)}")
    if "canonical" in out:
        try:
            again = fanfree.canonical_form(fanfree.graph6_decode(item["relabelled"])).text
        except Exception as exc:  # the check itself failed: report, do not hide
            problems.append(f"canonical_form on the relabelled graph raised {exc!r}")
        else:
            if again != out["canonical"]:
                problems.append(f"canonical_form changed under relabelling: "
                                f"{out['canonical']} vs {again}")
    return problems


def check_passes(workload: str, passes: list[dict], items: list[dict]) -> tuple[int, list[str]]:
    """Check every pass; return the inputs that raised or were wrong, and
    the problems found.  Later passes must reproduce the first exactly,
    traced or not."""
    failed = 0
    problems: list[str] = []
    if workload == "stream-mixed":
        fanfree = load_program()
        first = passes[0]["outputs"]
        first_failed = []
        for n_pass, p in enumerate(passes):
            for i, (item, out) in enumerate(zip(items, p["outputs"])):
                if n_pass and out == first[i]:
                    failed += first_failed[i]
                    continue
                found = check_graph(item, out, fanfree)
                if n_pass:
                    found.append("differs from the first pass")
                problems += [f"graph {i} {item['g6']} ({item['family']}): {x}" for x in found]
                bad = bool(found or out["errors"])
                if not n_pass:
                    first_failed.append(bad)
                failed += bad
        return failed, problems

    reference = None
    for p in passes:
        out = p["outputs"]
        if out["exit_code"] != 0:
            # the seed always completes these commands, so no output is a
            # wrong output
            problems.append(f"command exited with {out['exit_code']}: {out['error']}")
            failed += 1
            continue
        data = Path(out["path"]).read_bytes()
        if workload == "certify-n8":
            found = check_certify(data.decode("ascii"))
            comparable = strip_certificate(json.loads(data))
        else:
            found = check_enumerate(data)
            comparable = data
        if reference is None:
            reference = comparable
        elif comparable != reference:
            found.append("output differs from the first pass's")
        problems += found
        failed += bool(found)
    return failed, problems


# -- metrics --------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], peak_rss_mb: float, setup_s: float) -> dict:
    latencies_ms = [1000 * speed.normalise(x, p["ref_s"]) for p in passes
                    for x in p["latencies_s"]]
    return {
        "setup_s": setup_s,
        "wall_norm_s": statistics.median(speed.normalise(p["wall_s"], p["ref_s"])
                                         for p in passes),
        "cpu_norm_s": statistics.median(speed.normalise(p["cpu_s"], p["ref_s"])
                                        for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "input_p50_norm_ms": percentile(latencies_ms, 50),
        "input_p95_norm_ms": percentile(latencies_ms, 95),
    }


def layer_value(trace: dict, name: str) -> float:
    """``<layer>.<function>.<stat>`` from one traced pass's span summary."""
    function, stat = name.rsplit(".", 1)
    s = trace.get(function)
    if s is None:
        return 0
    if stat == "calls":
        return s["spans"]
    if stat == "yields":
        return s["true"]
    if stat == "pass_ratio":
        return s["true"] / s["spans"]
    return s[stat]


def per_layer(plain: list[dict], traced: list[dict], names: list[str]) -> dict:
    def norm_wall(passes):
        return statistics.median(speed.normalise(p["wall_s"], p["ref_s"]) for p in passes)

    run_level = {
        "trace.overhead_ratio": norm_wall(traced) / norm_wall(plain),
        "trace.wall_s": statistics.median(p["wall_s"] for p in traced),
        "trace.warnings": statistics.median(p["warnings"] for p in traced),
        "trace.self_share": statistics.median(
            sum(s["self_s"] for s in p["trace"].values()) / p["wall_with_samples_s"]
            for p in traced),
    }
    return {name: run_level[name] if name in run_level else
            statistics.median(layer_value(p["trace"], name) for p in traced)
            for name in names}


# -- main -----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fanfree" / "cli.py").is_file():
        sys.exit(f"run.py: no fanfree sources at {SRC}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args)
    WORK_PARENT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        setup_s = None if args.trace else measure_setup()
        items = []
        spec = {"workload": args.workload, "seconds": args.seconds,
                "trace": bool(args.trace), "work_dir": str(work)}
        if args.workload == "stream-mixed":
            items = oracle.make_stream(args.seed, STREAM_BLOCKS)
            spec["stream"] = str(work / "stream.json")
            Path(spec["stream"]).write_text(json.dumps(items))
        result = run_worker(spec, work, deadline)
        passes = result["passes"]
        failed, problems = check_passes(args.workload, passes, items)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["reference_s"] = [p["ref_s"] for p in passes]
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        values = per_layer(plain, [p for p in passes if p["traced"]], list(units))
    else:
        values = end_to_end(plain, result["peak_rss_mb"], setup_s)
    attempted = sum(p["attempted"] for p in passes)

    print(f"{args.workload}: {len(plain)} untraced and {len(passes) - len(plain)} traced "
          f"passes, {sum(len(p['latencies_s']) for p in plain)} timed inputs, "
          f"{attempted} attempted, {failed} failed, {len(problems)} wrong outputs, "
          f"{sum(p['warnings'] for p in passes)} warnings recorded")
    print("  raw untraced wall times (s): " + " ".join(f"{p['wall_s']:.3f}" for p in plain)
          + "; reference loop (ms): " + " ".join(f"{1000 * p['ref_s']:.3f}" for p in passes))
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
