"""Closed-loop end-to-end benchmark of the higgsmoduli command line.

One caller replays a seed-generated list of CLI calls and waits for each call
to finish before it starts the next; nothing runs concurrently.  Every call
runs in a fresh interpreter, because a real user pays for interpreter start,
the package import and any per-process cache on every call.  Each call's
exit code and exact stdout bytes are checked against digests recorded from
the seed commit (expected.json).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes with traced passes, in which every call runs under
tracer.py, and reports per-layer metrics from the traced calls' spans.

    python3 perfbench/run.py --workload betti --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # one table each

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

FORMATS = ("plain", "json", "latex")
MIRROR_SEEDS = (0, 1, 2)
# setup_s samples: this many before the timed passes, then one after each pass,
# so the median covers the run's whole span of host speed.
SETUP_FIRST = 3
CALL_TIMEOUT_S = 60.0
# Every run must end within 180 s; calls still pending past this are failures.
DEADLINE_S = 150.0

CLI_CODE = "from higgsmoduli.cli import main; main()"
TRACED_CODE = f"import sys; sys.path.insert(0, {str(HERE)!r}); import tracer; tracer.main()"
SETUP_CODE = "import higgsmoduli.cli"


def _poincare(space, g, via="both"):
    return ("poincare", "--space", space, "--genus", str(g), "--via", via)


def _mirror(g, sample=None):
    return ("mirror", "--genus", str(g)) + (() if sample is None else ("--sample", str(sample)))


# Each workload is a fixed list of call templates.  A workload seed permutes
# it and gives each call a --format (and each mirror call a --seed) from the
# pools above; the work per pass does not depend on the seed.
WORKLOADS = {
    # The exact kernel and the four Poincare pipelines; mirror is idle.  The
    # median call (vector-bundles g=32) is at least 1.5x away from its
    # neighbours in duration, so call_p50_s does not hop between call types.
    "betti": [_poincare("vector-bundles", g) for g in (8, 16, 32, 40, 48)]
    + [_poincare("higgs", g) for g in (25, 50, 75, 150, 175, 200)],
    # The literal 4^g-term Weil-pairing average; the kernel is idle.
    "mirror-exhaustive": [_mirror(g) for g in (2, 3, 4, 5, 6)],
    # The same layer dominated by building the 4^g element table (memory).
    "mirror-sampled": [_mirror(7, 16), _mirror(8, 8), _mirror(9, 4)],
    # Interpreter start, import, argparse and formatting; every subcommand.
    "cli-small": [
        _poincare(space, g, via)
        for g in (2, 3, 4)
        for space, vias in (("vector-bundles", ("closed", "recursion", "both")),
                            ("higgs", ("closed", "strata", "both")))
        for via in vias
    ]
    + [_mirror(2), _mirror(3)]
    + [
        ("dims", "--rank", "2", "--genus", "2", "--group", "sl"),
        ("dims", "--rank", "2", "--genus", "3", "--group", "gl"),
        ("dims", "--rank", "2", "--genus", "5", "--degree", "1", "--group", "pgl"),
        ("dims", "--rank", "3", "--genus", "4"),
        ("spectral", "--rank", "2", "--genus", "2", "--degree", "1"),
        ("spectral", "--rank", "3", "--genus", "3", "--degree", "0"),
        ("git", "classify", "--weights", "1,-1"),
        ("git", "classify", "--weights", "0,0"),
        ("git", "classify", "--weights", "1,2,3"),
        ("git", "classify", "--weights", "0,1,-2"),
        ("git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5", "--genus", "2"),
        ("git", "hm", "--blocks", "1:2:1:0,2:-1:1:1", "--m", "7", "--genus", "3", "--n", "4"),
        ("macdonald", "--genus", "2", "--n", "1"),
        ("macdonald", "--genus", "3", "--n", "4"),
    ],
}

# (name, unit) of the metrics in the result line, as in BENCHMARK.json.  The
# table also prints call_p50_s and error_rate, which are not in the result:
# call_p50_s rests on a few samples of one call type (the median call of a
# pass) and swung by 20-40% between runs on a shared 2-core host, and
# error_rate is 0 for a correct program (failed/attempted carry it).
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _variants(template):
    seeds = MIRROR_SEEDS if template[0] == "mirror" else (None,)
    for fmt in FORMATS:
        for seed in seeds:
            yield template + (() if seed is None else ("--seed", str(seed))) + ("--format", fmt)


def all_argvs(workload):
    """Every argv any seed can generate for the workload."""
    return [argv for template in WORKLOADS[workload] for argv in _variants(template)]


def call_list(workload, seed):
    rng = random.Random(seed)
    templates = list(WORKLOADS[workload])
    rng.shuffle(templates)
    calls = []
    for template in templates:
        mirror_seed = ("--seed", str(rng.choice(MIRROR_SEEDS))) if template[0] == "mirror" else ()
        calls.append(template + mirror_seed + ("--format", rng.choice(FORMATS)))
    return calls


def warmup_list(workload):
    """The first call of each subcommand: compiles every .pyc once, untimed."""
    firsts = {}
    for template in WORKLOADS[workload]:
        firsts.setdefault(template[0], next(_variants(template)))
    return list(firsts.values())


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("HITCHIN_TRUNC_ORDER", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def key(argv):
    return " ".join(argv)


def digest(data):
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class Result:
    argv: tuple
    wall: float
    cpu: float
    rss_kb: int
    code: int | None
    stdout: bytes
    spans: list | None
    speed: float = 1.0  # host speed during the call (see launcher.py)
    cpu_speed: float = 1.0
    ok: bool = False


class Launcher:
    """The launcher.py process that spawns and reaps every child of a run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)

    def spawn(self, code, args, timeout, trace=False, sample=False):
        """Run `python3 -c code *args`.

        Returns wall, CPU, peak RSS, exit code, stdout, spans, and the host's
        wall and CPU speed during the run (1.0 unless `sample`).
        """
        request = {"argv": [sys.executable, "-c", code, *args], "env": child_env(),
                   "timeout": timeout, "trace": trace, "sample": sample}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        header = json.loads(self.proc.stdout.readline())
        stdout, stderr, spans = (self.proc.stdout.read(header[name])
                                 for name in ("stdout", "stderr", "spans"))
        if header["code"] not in (0, None):
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return (header["wall"], header["cpu"], header["rss_kb"], header["code"], stdout,
                json.loads(spans) if spans and header["code"] == 0 else None,
                header["speed"], header["cpu_speed"])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs CLI calls against one deadline and checks each one's output."""

    def __init__(self, expected, deadline):
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.launcher = Launcher()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.close()

    def timeout(self):
        return min(CALL_TIMEOUT_S, self.deadline - time.perf_counter())

    def call(self, argv, trace=False, sample=False):
        self.attempted += 1
        timeout = self.timeout()
        if timeout <= 0:
            self.failed += 1
            return Result(argv, 0.0, 0.0, 0, None, b"", None)
        result = Result(argv, *self.launcher.spawn(TRACED_CODE if trace else CLI_CODE, argv,
                                                   timeout, trace, sample))
        result.ok = (result.code == 0 and digest(result.stdout) == self.expected.get(key(argv))
                     and (result.spans is not None or not trace))
        if not result.ok:
            self.failed += 1
            print(f"FAILED (exit {result.code}): {key(argv)}", file=sys.stderr)
        return result

    def run_pass(self, calls, trace=False, sample=False):
        start = time.perf_counter()
        results = [self.call(argv, trace, sample) for argv in calls]
        return time.perf_counter() - start, results

    def measure_setup(self, samples):
        """Append (wall, host speed) of a fresh interpreter that only imports the CLI."""
        wall, _, _, code, _, _, speed, _ = self.launcher.spawn(SETUP_CODE, (), self.timeout(),
                                                               sample=True)
        if code != 0:
            raise SystemExit(f"perfbench: `{SETUP_CODE}` exited with {code}")
        samples.append((wall, speed))


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(passes, setup):
    """Pass times are means over the run's passes: a run holds only three or four
    passes of mirror-exhaustive, and a median of so few follows single fast or
    slow stretches of the host."""
    results = [r for _, rs in passes for r in rs]
    n_passes, n_calls, n_setup = (f"n={len(passes)} passes", f"n={len(results)} calls",
                                  f"n={len(setup)} interpreters")

    def per_pass(value):
        return statistics.fmean(sum(value(r) for r in rs) for _, rs in passes)

    return {  # name: (value, unit, sample count)
        "wall_s": (per_pass(lambda r: r.wall * r.speed), "s", n_passes),
        "cpu_s": (per_pass(lambda r: r.cpu * r.cpu_speed), "s", n_passes),
        "call_p50_s": (statistics.median(r.wall * r.speed for r in results), "s", n_calls),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024, "MB", n_calls),
        "setup_s": (statistics.median(w * speed for w, speed in setup), "s", n_setup),
        "raw.wall_s": (per_pass(lambda r: r.wall), "s", n_passes),
        "raw.cpu_s": (per_pass(lambda r: r.cpu), "s", n_passes),
        "raw.setup_s": (statistics.median(w for w, _ in setup), "s", n_setup),
        "host_speed": (statistics.median(r.speed for r in results), "ratio", n_calls),
    }


def loop(seconds, body):
    """Call body() until the next call would run past `seconds`; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            return


def run_workload(runner, workload, seed, seconds, trace):
    """Measure one workload; returns (attempted, failed, metrics, table rows)."""
    for argv in warmup_list(workload):
        runner.call(argv)
    runner.attempted = runner.failed = 0  # the warm-up is untimed and uncounted
    calls = call_list(workload, seed)

    if not trace:
        setup, passes = [], []
        for _ in range(SETUP_FIRST):
            runner.measure_setup(setup)

        def timed_pass():
            passes.append(runner.run_pass(calls, sample=True))
            runner.measure_setup(setup)

        loop(seconds, timed_pass)
        values = end_to_end(passes, setup)
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
        rows = [(name, *row) for name, row in values.items()]
    else:
        import layers  # the span aggregation is only needed for traced runs

        plain, traced = [], []

        def pair():
            plain.append(runner.run_pass(calls))
            traced.append(runner.run_pass(calls, trace=True))

        loop(seconds, pair)
        values = layers.per_layer(traced, plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.METRICS}
        rows = [(name, values[name], unit, f"n={len(traced)} traced passes")
                for name, unit, _ in layers.METRICS]
    rows.append(("error_rate", runner.failed / max(runner.attempted, 1), "ratio",
                 f"{runner.failed}/{runner.attempted} calls failed"))
    return runner.attempted, runner.failed, metrics, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "higgsmoduli" / "cli.py").is_file():
        sys.exit(f"perfbench: no higgsmoduli sources under {SRC}")
    if not EXPECTED.is_file():
        sys.exit(f"perfbench: missing {EXPECTED}")
    expected = json.loads(EXPECTED.read_text())
    env = environment(args)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        start = time.perf_counter()
        with Runner(expected, start + DEADLINE_S) as runner:
            n, bad, values, rows = run_workload(runner, workload, args.seed, args.seconds,
                                                args.trace)
        attempted, failed = attempted + n, failed + bad
        prefix = "" if args.workload != "all" else workload + "."
        metrics.update({prefix + name: v for name, v in values.items()})
        print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
              f"{time.perf_counter() - start:.1f} s")
        for name, value, unit, note in rows:
            print(f"  {name:<40} {value:>14.6f} {unit:<6} {note}")
    env["loadavg_end"] = list(os.getloadavg())
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
