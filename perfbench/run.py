"""Layer-by-layer benchmark of the fuzzysphere laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

Run from the repository root.  Each measured call of a workload is one
fresh interpreter (perfbench/workload.py) with BLAS pinned to one thread:
the CLI workloads call `fuzzysphere.cli.main(argv)` with the workload seed
as `--seed`; tridiag-batch runs criterion 5's random tridiagonals through
`spectral`.  Calls repeat while a typical call still ends within S seconds
(at least MIN_CALLS are made):

  wall_s       the measured call, after imports, tracing off
  setup_s      from starting the interpreter to `import fuzzysphere.cli` done
  peak_rss_mb  peak RSS of the call's process plus that of each pool worker
  pass_ratio   1 - failed / attempted operations (see gate.py)

The first three are medians over the calls.  The two times are given in
reference seconds: a shared host runs the same code up to twice as slowly
for seconds to minutes at a time, so every call also times a fixed probe
kernel that uses no fuzzysphere code (workload.host_probe_s), just before
and just after its measured region, and each time is scaled by
spec.PROBE_REF_S over the probe time next to it: wall_s by the mean of
the two probes, setup_s by the one before.  A serial workload's process is
pinned to one CPU, the one the probe times; sphere-pool's probe averages
over every CPU its workers may use.  A change to the package moves the
call but not the probe.  Every raw sample and probe time is kept in
.perfbench/result-*.json.

With `--trace 1` one more call runs with every public function of the
package wrapped (spans.py), and the per-layer metrics come from it; its
spans, one list per process batch, go to .perfbench/spans-*.json;
the other per-layer times are raw seconds of that call, and
trace.overhead_s is its wall time minus the run's wall_s, both in
reference seconds.  Every metric measured is printed with its unit; the
last line of standard output is the result object, with the end-to-end
metrics under `--trace 0` and the per-layer ones under `--trace 1`, and
the line before it is the environment block, which takes part in no
comparison.

`--smoke` runs every workload at tiny sizes and checks that each metric of
BENCHMARK.json is emitted with its unit, and that the gate counts a dropped
check key, a failing check and a non-zero exit as failures.
`--write-reference` regenerates the reference check keys from the code as
it stands.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_CALLS = 3
CALL_TIMEOUT = 150
_CALL_IDS = itertools.count()


class BenchError(RuntimeError):
    pass


def _call(workload: str, seed: int, tmp: Path, *flags: str) -> dict:
    """Run workload.py once; returns its JSON line plus setup_s."""
    report = str(tmp / f"call{next(_CALL_IDS)}.json")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--report", report, *flags]
    env = dict(os.environ, **spec.PINNED_ENV)
    env.pop("PERFBENCH_SPOOL", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: call exceeded {CALL_TIMEOUT} s")
    finally:
        # pool workers share the session; none may outlive the call
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: workload.py exited {proc.returncode}\n"
                         f"{err[-3000:]}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["setup_end"] - t0
    if "probe_s" in result:
        before, after = result["probe_s"]
        result["wall_ref_s"] = result["wall_s"] * spec.PROBE_REF_S * 2 / (before + after)
        result["setup_ref_s"] = result["setup_s"] * spec.PROBE_REF_S / before
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Everything one run measures: calls, medians, layers, environment."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    size = ["--smoke"] if smoke else []
    try:
        # first interpreter start fills the page cache; its set-up is not kept
        env = _call(workload, seed, tmp, "--env")["env"]
        calls, took = [], []
        deadline = time.monotonic() + seconds
        # start another call only if a typical one still ends by the deadline
        while (len(calls) < (1 if smoke else MIN_CALLS)
               or time.monotonic() + statistics.median(took) <= deadline):
            t0 = time.monotonic()
            calls.append(_call(workload, seed, tmp, *size))
            took.append(time.monotonic() - t0)
        traced = None
        if trace:
            spans = WORK / f"spans-{workload}-seed{seed}.json"
            traced = _call(workload, seed, tmp, "--trace", str(spans), *size)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = calls + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in everything)
    failed = sum(c["failed"] for c in everything)
    metrics = {
        "wall_s": statistics.median(c["wall_ref_s"] for c in calls),
        "setup_s": statistics.median(c["setup_ref_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_kib"] for c in calls) / 1024.0,
        "pass_ratio": 1.0 - failed / attempted,
    }
    layers = None
    if traced:
        overhead = traced["wall_ref_s"] - metrics["wall_s"]
        layers = dict(traced["layers"], **{"trace.overhead_s": overhead})
    return {"workload": workload, "seed": seed, "env": env,
            "calls": len(calls), "attempted": attempted, "failed": failed,
            "end_to_end": metrics, "per_layer": layers,
            "samples": {k: [c[k] for c in calls]
                        for k in ("wall_s", "setup_s", "probe_s", "wall_ref_s",
                                  "setup_ref_s", "peak_kib")}}


def _result_line(m: dict, trace: bool) -> dict:
    units = spec.PER_LAYER if trace else spec.END_TO_END
    values = m["per_layer"] if trace else m["end_to_end"]
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def _cli_main():
    """fuzzysphere.cli.main in this process, with BLAS pinned as in the calls."""
    os.environ.update(spec.PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from fuzzysphere.cli import main as cli_main
    return cli_main


def smoke() -> int:
    """The benchmark's own test, at tiny sizes."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    for section, units in (("end_to_end", spec.END_TO_END),
                           ("per_layer", spec.PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        want = {k: (u, "higher" if k in spec.HIGHER_IS_BETTER else "lower")
                for k, u in units.items()}
        assert got == want, f"BENCHMARK.json {section} differs from spec.py"

    for name in spec.WORKLOADS:
        m = measure(name, seed=1, seconds=0, trace=True, smoke=True)
        for trace in (False, True):
            line = _result_line(m, trace)
            units = spec.PER_LAYER if trace else spec.END_TO_END
            assert set(line["metrics"]) == set(units), name
            for k, v in line["metrics"].items():
                assert v["unit"] == units[k] and isinstance(v["value"], (int, float)), (name, k)
            assert line["correct"] and line["failed"] == 0, (name, line)
        print(f"smoke {name}: {m['calls']} call(s), {m['attempted']} operations, "
              f"wall_s {m['end_to_end']['wall_s']:.3f}", flush=True)

    # the gate must see a dropped key, a failing check and a non-zero exit
    w = spec.CLI_WORKLOADS["sphere-all"]
    lam = w["lam"][1]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        report = Path(tmp) / "report.json"
        assert _cli_main()(["verify", "--d", str(w["d"]), "--lambda", lam,
                         "--suite", "all", "--seed", "1", "--json", str(report)]) == 0
        records = json.loads(report.read_text())["checks"]
    reference = gate.load_reference(w["d"], lam)
    assert gate.gate_checks(reference, records, 0)[1] == 0
    dropped = gate.check_key(records[len(records) // 2])
    kept = [r for r in records if gate.check_key(r) != dropped]
    attempted, failed = gate.gate_checks(reference, kept, 0)
    assert failed == 1 and failed / attempted > 0, (attempted, failed)
    flipped = [dict(r, **{"pass": False}) if i == 0 else r
               for i, r in enumerate(records)]
    assert gate.gate_checks(reference, flipped, 0)[1] == 1
    assert gate.gate_checks(reference, records, 1)[1] == len(reference)
    print(f"smoke gate: dropping {dropped} gives fail_ratio {failed / attempted:.4f}")
    print("smoke: ok")
    return 0


def write_reference() -> int:
    """Write the (tag, lambda, m) keys of every CLI workload's report."""
    cli_main = _cli_main()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    done = set()
    for w in spec.CLI_WORKLOADS.values():
        for lam in w["lam"]:
            if (w["d"], lam) in done:
                continue
            done.add((w["d"], lam))
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                report = Path(tmp) / "report.json"
                code = cli_main(["verify", "--d", str(w["d"]), "--lambda", lam,
                                 "--suite", "all", "--seed", "0",
                                 "--json", str(report)])
                records = json.loads(report.read_text())["checks"]
            if code != 0 or not all(r["pass"] for r in records):
                raise BenchError(f"d={w['d']} lambda={lam}: checks fail, "
                                 "no reference written")
            keys = sorted({gate.check_key(r) for r in records},
                          key=lambda k: (k[0], k[1] or 0, -1 if k[2] is None else k[2]))
            path = gate.reference_path(w["d"], lam)
            argv = f"verify --d {w['d']} --lambda {lam} --suite all"
            path.write_text(f'{{"argv": "{argv}", "keys": [\n'
                            + ",\n".join(json.dumps(k) for k in keys) + "\n]}\n")
            print(f"wrote {len(keys)} keys to {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    if not (ROOT / "src" / "fuzzysphere" / "cli.py").is_file():
        print(f"error: no fuzzysphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            p.error("--workload is required")
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(m, indent=1) + "\n")
    print(f"{args.workload}: {m['calls']} calls, seed {args.seed}, "
          f"{m['failed']} of {m['attempted']} operations failed")
    tables = [(m["end_to_end"], spec.END_TO_END)]
    if args.trace:
        tables.append((m["per_layer"], spec.PER_LAYER))
    for shown, units in tables:
        for k, u in units.items():
            print(f"  {k:48s} {shown[k]:>16.6g} {u}")
    print(json.dumps({"env": m["env"]}))
    print(json.dumps(_result_line(m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
