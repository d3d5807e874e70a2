"""Benchmark of the HDMM query system: HTTP serving and HDMM itself.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

``serve_read``   closed loop, 2 keep-alive connections, free hits only;
``serve_mixed``  open loop, fixed offered rate, exactly 1 in 10 a measured
                 write;
``cold_fit``     ``QueryService.prepare`` of paper Table 3 configs;
``eps_sweep``    ``QueryService.measure`` of an ε grid on a warm L=4 union.

``serve_mixed`` is not listed in ``BENCHMARK.json``: its reads' latency
moves with the host by more than its bound between runs of the same
code, and no reference here follows it.  It still runs, checks and
traces when named.

A run with ``--trace 0`` is split into :data:`PARTS` fresh child
processes (``pb_workloads.py``; the HTTP workloads add a ``pb_server.py``
process each), run one after another.  Each sets up (timed: child start
to first timed op), warms up, and does ``seconds / PARTS`` of timed work,
so every run sets up several times and spreads its samples over several
processes.  BLAS/OpenMP threads are pinned to one through the
environment.  The result's metrics are the same on every workload:

``setup_s``      median set-up time of the parts, as measured;
``peak_rss_mb``  peak RSS of a part's processes (the largest part);
``p50_ms``       median latency of the workload's headline op: a free
                 read (serve_read), a free read beside the writes, timed
                 from its scheduled send (serve_mixed), a fit of the
                 whole config set (cold_fit), a sweep (eps_sweep).

``mean_ms`` (the mean over every timed request or op) is printed but not
gated: on serve_mixed a few stalls behind writes move it by tens of
percent between runs.

Shared cloud hosts drift in speed by tens of percent within seconds, so
``p50_ms`` is taken as follows (the figures printed by name stay as
measured, next to the speed factor ``host_speed``):

* cold_fit, eps_sweep: this process, which never loads the program under
  test, times a fixed CPU kernel (``pb_stats.calibrate``) between windows
  of about a second of ops, while the part waits idle; each window's ops
  are rescaled to the speed at which the kernel takes
  :data:`CAL_REF_MS`, and ``p50_ms`` is the median over all ops.
* serve_read: the kernel does not follow the speed of HTTP traffic, so
  the part brackets each half second of reads with an eighth of a second
  of the same reads to ``pb_refserver`` (a stdlib HTTP server on the server's
  CPU) while the server under test is stopped; each window's reads are
  rescaled to the speed at which the reference takes
  :data:`REF_READ_MS`, and ``p50_ms`` is the median over all reads.
* serve_mixed: the median over the parts' medians, as measured (its
  reads are timed from their scheduled send at a low rate, so wake-ups
  dominate them, which neither reference follows).

The per-workload figures (``read_qps``, ``read_p99_ms``, ``write_p90_ms``,
``fit_s``, ``fit_rmse.*``, ``sweep_rmse``, ``error_rate`` …) are printed
by name with unit and sample count above the result line.  A run with
``--trace 1`` is one part doing ``seconds`` untraced, then ``seconds``
traced; its metrics are the per-layer ones of ``pb_layers``.

The last line of stdout is the result object; the exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Child processes per untraced run; each sets up and does a share of
#: the timed work.
PARTS = 3
#: Milliseconds the calibration kernel takes at the reference speed (a
#: typical figure on a 2-CPU cloud host).
CAL_REF_MS = 4.0
#: Workloads whose op times are rescaled by the calibration.
CALIBRATED = ("cold_fit", "eps_sweep")
#: Milliseconds ``pb_refserver``'s median read takes at the reference
#: speed (a typical figure on a 2-CPU cloud host).
REF_READ_MS = 0.1
#: Everything, set-ups included, must finish within this many seconds.
RUN_BUDGET_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Per workload: the samples behind ``p50_ms``.
HEADLINE = {
    "serve_read": "read_ms",
    "serve_mixed": "read_ms",
    "cold_fit": "op_ms",
    "eps_sweep": "op_ms",
}

sys.path.insert(0, HERE)
import pb_layers  # noqa: E402
import pb_stats  # noqa: E402


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    return env


def src_digest() -> str:
    """SHA-256 over the program's source tree (paths and contents)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the repository rooted exactly here, if it is one (git is
    kept from searching the directories above)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or lines[0] != ROOT:
        return None
    return lines[1]


def run_part(args, part: int, parts: int, seconds: float, workdir: str,
             deadline: float) -> tuple[dict, float]:
    """Run one ``pb_workloads.py`` child; returns its result, with the
    calibrations timed at its request (one more than its windows) as
    ``cal_ms``, and the seconds from its start to its SETUP_DONE line."""
    os.makedirs(workdir, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "pb_workloads.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--part", str(part),
            "--parts", str(parts),
            "--seconds", repr(seconds),
            "--trace", str(args.trace),
            "--workdir", workdir,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(workdir),
    )
    # A hung child is killed at the run's deadline.
    watchdog = threading.Timer(max(deadline - time.time(), 0.0), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        cal = []
        for out_line in proc.stdout:
            if out_line.strip() == "SETUP_DONE" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif out_line.strip() == "CALIBRATE":
                cal.append(pb_stats.calibrate())
                proc.stdin.write("\n")
                proc.stdin.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{args.workload} part {part} failed (exit code {code})")
    with open(os.path.join(workdir, "result.json")) as f:
        result = json.load(f)
    if len(cal) != (len(result["windows"]) + 1 if "windows" in result else 0):
        raise RuntimeError(f"{args.workload} part {part}: calibration out of step")
    result["cal_ms"] = cal
    return result, setup_s


def run(args, workdir: str) -> tuple[list[dict], list[float]]:
    deadline = time.time() + RUN_BUDGET_S
    parts = 1 if args.trace else PARTS
    results, setups = [], []
    for k in range(parts):
        result, setup_s = run_part(
            args, k, parts, args.seconds / parts,
            os.path.join(workdir, f"part-{k}"), deadline,
        )
        results.append(result)
        setups.append(setup_s)
    return results, setups


def keep_trace_dump(workdir: str, args) -> None:
    """Keep the traced pass's raw spans under .perfbench_work/traces."""
    dest = os.path.join(ROOT, ".perfbench_work", "traces")
    for name in ("server_spans.jsonl", "spans.jsonl"):
        src = os.path.join(workdir, "part-0", name)
        if os.path.exists(src):
            os.makedirs(dest, exist_ok=True)
            shutil.move(src, os.path.join(dest, f"{args.workload}-{args.seed}-{name}"))


def latency_lines(prefix: str, values, tail_p: float) -> list[tuple]:
    """``(name, value, unit, n)`` for the median and the tail of a latency
    sample.  The tail is taken at ``tail_p`` when the sample has at least
    ten values beyond it, else at the highest percentile that has; a
    ``None`` value flags a sample too small for any tail.  The count
    printed beside a tail is the number of samples beyond it."""
    if not values:
        return [(f"{prefix}_p50_ms", None, "ms", 0)]
    out = [(f"{prefix}_p50_ms", pb_stats.median(values), "ms", len(values))]
    at = pb_stats.tail_at(values, tail_p)
    if at is not None:
        return out + [(f"{prefix}_p{tail_p:g}_ms", at[0], "ms", at[1])]
    t = pb_stats.tail(values)
    if t is None:
        return out + [(f"{prefix}_tail_ms", None, "ms", len(values))]
    return out + [(f"{prefix}_p{t[0]:g}_ms", t[1], "ms", t[2])]


def rescaled(result: dict) -> list[float]:
    """A compute part's op times, each window's rescaled to the reference
    speed by the calibrations just before and just after that window."""
    cal = result["cal_ms"]
    out = []
    for k, window in enumerate(result["windows"]):
        speed = 2 * CAL_REF_MS / (cal[k] + cal[k + 1])
        out.extend(v * speed for v in window)
    return out


def referenced(result: dict) -> list[float]:
    """A serve_read part's read latencies, each window's rescaled to the
    reference speed by the reference server's median latency just before
    and just after that window."""
    ref = result["ref_ms"]
    if len(ref) != len(result["read_windows"]) + 1:
        raise RuntimeError("serve_read: reference out of step")
    out = []
    for k, window in enumerate(result["read_windows"]):
        speed = 2 * REF_READ_MS / (ref[k] + ref[k + 1])
        out.extend(v * speed for v in window)
    return out


def summarize(workload: str, results: list[dict], setups: list[float]) -> dict:
    """Merge the parts: samples pooled, counts summed, checks and-ed."""
    samples: dict = {}
    for r in results:
        for name, values in r["samples"].items():
            samples.setdefault(name, []).extend(values)
    checks: dict = {}
    for r in results:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    elapsed = math.fsum(r["elapsed_s"] for r in results)
    part_p50 = [pb_stats.median(r["samples"][HEADLINE[workload]]) for r in results]
    report = [
        ("setup_s", pb_stats.median(setups), "s", len(setups)),
        ("peak_rss_mb", max(r["rss_mb"] for r in results), "MB", len(results)),
    ]
    if workload in CALIBRATED:
        # Pooled: a part holds only a few fits.
        p50 = pb_stats.median([v for r in results for v in rescaled(r)])
        cal = [c for r in results for c in r["cal_ms"]]
        report.insert(0, ("host_speed", CAL_REF_MS / pb_stats.median(cal), "x", len(cal)))
    elif workload == "serve_read":
        p50 = pb_stats.median([v for r in results for v in referenced(r)])
        ref = [m for r in results for m in r["ref_ms"]]
        report.insert(0, ("host_speed", REF_READ_MS / pb_stats.median(ref), "x", len(ref)))
    else:
        # The median over the parts' medians: one part that met a noisy
        # spell of the host cannot move the run's figure.
        p50 = pb_stats.median(part_p50)
    e2e = {
        "setup_s": pb_stats.median(setups),
        "peak_rss_mb": report[-1][1],
        "p50_ms": p50,
    }
    by_part = {"setup_s": setups, "p50_ms (as measured)": part_p50}
    if workload.startswith("serve_"):
        report.append(("error_rate", failed / max(attempted, 1), "ratio", attempted))
    if workload == "serve_read":
        reads = samples["read_ms"]
        report.append(("read_qps", len(reads) / elapsed, "1/s", len(reads)))
        report += latency_lines("read", reads, 99.0)
    elif workload == "serve_mixed":
        report += latency_lines("read", samples["read_ms"], 99.0)
        report += latency_lines("write", samples["write_ms"], 90.0)
        late = samples["late_ms"]
        report.append(("client.late_ms_mean", math.fsum(late) / len(late), "ms", len(late)))
    elif workload == "cold_fit":
        fits = samples["op_ms"]
        report.append(("fit_s", pb_stats.median(fits) / 1e3, "s", len(fits)))
        for name, rmse in results[0]["fit_rmse"].items():
            report.append((f"fit_rmse.{name}", rmse, "rmse", 1))
    else:
        sweeps = samples["op_ms"]
        report.append(("sweep_s", pb_stats.median(sweeps) / 1e3, "s", len(sweeps)))
        rmse = samples["rmse"]
        report.append(("sweep_rmse", math.fsum(rmse) / len(rmse), "rmse", len(rmse)))
    mean_keys = ("read_ms", "write_ms") if workload.startswith("serve_") else ("op_ms",)
    pooled = [v for k in mean_keys for v in samples[k]]
    report.append(("mean_ms", math.fsum(pooled) / len(pooled), "ms", len(pooled)))
    return {
        "e2e": e2e,
        "by_part": by_part,
        "report": report,
        "checks": checks,
        "errors": [e for r in results for e in r["errors"]][:20],
        "attempted": attempted,
        "failed": failed,
        "layers": results[0].get("layers"),
        "provenance": results[0].get("provenance", {}),
    }


def show(summary: dict, args) -> None:
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "blas_threads": {k: "1" for k in BLAS_ENV},
        **summary["provenance"],
    }
    if args.workload == "serve_mixed":
        import pb_gen

        prov.update(offered_rate_per_s=pb_gen.OFFERED_RATE,
                    write_share=pb_gen.WRITE_SHARE)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("  as measured (host_speed = calibration kernel's reference time / "
          "its time here):")
    for name, value, unit, n in summary["report"]:
        shown = "UNSUPPORTED (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown} {unit}  (n={n})")
    for name, ok in sorted(summary["checks"].items()):
        print(f"  check {name:<26} {'ok' if ok else 'FAILED'}")
    for err in summary["errors"]:
        print(f"  error: {err}")
    print("  end-to-end metrics (p50_ms at reference speed on cold_fit and "
          "eps_sweep): " + ", ".join(
        f"{k}={v:.6g}" for k, v in summary["e2e"].items()))
    for k, values in summary["by_part"].items():
        print(f"  {k} by part: " + " ".join(f"{v:.6g}" for v in values))
    layers = summary["layers"]
    if layers:
        print("  per-layer (self time per op; counts per op):")
        for name, value in layers.items():
            print(f"    {name:<44} {value:12.6f} {pb_layers.UNITS[name]}")
        total = sum(v for k, v in layers.items() if k in pb_layers.E2E_PARTS)
        print(f"    layers + unattributed = {total:.6f} ms; traced e2e = "
              f"{layers['trace.e2e_ms']:.6f} ms; tracing overhead = "
              f"{layers['trace.overhead_ms']:.6f} ms/op")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(HEADLINE), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 3

    workdir = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        results, setups = run(args, workdir)
        keep_trace_dump(workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(args.workload, results, setups)
    show(summary, args)
    correct = all(summary["checks"].values()) and bool(summary["checks"])
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = {k: {"value": v, "unit": pb_layers.UNITS[k]}
                   for k, v in summary["layers"].items()}
    else:
        units = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms"}
        metrics = {k: {"value": summary["e2e"][k], "unit": u} for k, u in units.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
