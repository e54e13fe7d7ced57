"""Timed passes of one workload, run in a fresh process by run.py.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json, with fanfree
importable.  SPEC names the workload, the seconds to measure, whether to
trace, the work directory and, for stream-mixed, the input file.

A pass is one unit of the workload: one ``fanfree certify`` or
``fanfree enumerate`` command through ``fanfree.cli.main``, or one walk
over the whole graph6 stream.  Passes repeat while the next one is
expected to end within the budget; at least one always runs.  With
tracing on, half the budget runs untraced passes, then the tracer is
installed and the other half runs traced passes.

Every pass runs with the reference-loop sampler of speed.py on.  Its
time is taken out of every timing the pass reports, and the pass records
the mean sample time so that run.py can normalise its timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from speed import Sampler
from tracer import Tracer, recorded_warnings

import fanfree.cli
import fanfree.enumeration
import fanfree.fans

COMMANDS = {
    "certify-n8": ["certify", "--n", "8", "--k", "2"],
    "enumerate-n8": ["enumerate", "--n", "8"],
}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def command_pass(argv: list[str], work: Path, tag: str, sampler: Sampler) -> dict:
    output = work / f"{tag}.out"
    t0, spent0 = time.perf_counter(), sampler.spent
    try:
        code = fanfree.cli.main(argv + ["-o", str(output)])
        error = None
    except Exception as exc:  # the pass counts as failed; later passes still run
        code, error = None, repr(exc)
    wall = time.perf_counter() - t0 - (sampler.spent - spent0)
    return {"latencies_s": [wall], "attempted": 1,
            "failed": int(code != 0),
            "outputs": {"exit_code": code, "error": error, "path": str(output)}}


def stream_pass(items: list[dict], sampler: Sampler) -> dict:
    """Each graph6 line goes through the calls the row commands ``q1``,
    ``fan-free`` and ``bounds`` make.  A call that raises is recorded and
    the remaining calls still run on the graph."""
    cli = fanfree.cli
    decode = fanfree.enumeration.graph6_decode
    is_fan_free = fanfree.fans.is_fan_free
    contains_fan, q1, merris_bound = cli.contains_fan, cli.q1, cli.merris_bound
    canonical_form, encode = cli.canonical_form, cli.graph6_encode

    latencies, outputs, graphs = [], [], []
    failed = 0
    for item in items:
        out: dict = {"errors": {}}

        def attempt(key, fn, *args):
            try:
                out[key] = fn(*args)
            except Exception as exc:  # counted per graph, never skipped
                out["errors"][key] = repr(exc)

        t0, spent0 = time.perf_counter(), sampler.spent
        attempt("graph", decode, item["g6"])
        g = out.pop("graph", None)
        if g is not None:
            attempt("fan_free_2", is_fan_free, g, 2)
            attempt("fan_3", contains_fan, g, 3)
            attempt("q1", q1, g)
            if item["merris"]:
                attempt("merris", merris_bound, g)
            if item["canonical"]:
                attempt("canonical", canonical_form, g)
            attempt("encoded", encode, g)
        latencies.append(time.perf_counter() - t0 - (sampler.spent - spent0))
        failed += bool(out["errors"])
        graphs.append(g)
        outputs.append(out)

    for g, out in zip(graphs, outputs):
        out["adj"] = None if g is None else list(g.adj)
        fan = out.get("fan_3")
        if fan is not None:
            out["fan_3"] = [fan.center, [list(p) for p in fan.pairs]]
        if "canonical" in out:
            out["canonical"] = out["canonical"].text
        if "merris" in out:
            out["merris"] = list(out["merris"])
    return {"latencies_s": latencies, "attempted": len(items), "failed": failed,
            "outputs": outputs}


def run_passes(run_one, budget: float, tracer: Tracer, sampler: Sampler,
               traced: bool) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        tracer.reset()
        sampler.start()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = run_one(len(passes), traced)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        result["ref_s"] = sampler.stop()
        # the spans include the samples, so self_share compares them with
        # the wall time that includes them too
        result["wall_with_samples_s"] = wall
        result["wall_s"] = wall - sampler.spent
        result["cpu_s"] = cpu - sampler.spent
        result["traced"] = traced
        result["warnings"] = tracer.warnings
        if traced:
            result["trace"] = tracer.summary()
        passes.append(result)
        if time.perf_counter() - start + wall > budget:
            return passes


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work_dir"])
    sampler = Sampler()
    if spec["workload"] == "stream-mixed":
        items = json.loads(Path(spec["stream"]).read_text())
        run_one = lambda i, traced: stream_pass(items, sampler)
    else:
        argv = COMMANDS[spec["workload"]]
        run_one = lambda i, traced: command_pass(
            argv, work, f"{'traced' if traced else 'plain'}-{i}", sampler)

    tracer = Tracer()
    budget = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    with recorded_warnings(tracer.showwarning):
        passes = run_passes(run_one, budget, tracer, sampler, False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spec["trace"]:
            tracer.install()
            passes += run_passes(run_one, budget, tracer, sampler, True)
    Path(result_path).write_text(json.dumps({"passes": passes, "peak_rss_mb": peak_rss_mb}))


if __name__ == "__main__":
    main(*sys.argv[1:])
