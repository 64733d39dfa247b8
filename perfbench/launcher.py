"""Spawn one command at a time for run.py and reap it with os.wait4.

A child's ru_maxrss also counts the resident memory of the process it was
spawned from, so spawning the CLI from the benchmark driver (about 20 MB)
would report the driver's size, not the CLI's.  run.py therefore starts this
small process (python3 -S, loading only os, selectors and json; about 10 MB,
below any CLI call) and sends it one JSON request per line on stdin:

    {"argv": [...], "env": {...}, "timeout": seconds, "trace": bool, "sample": bool}

For each request it writes one JSON line

    {"wall": s, "cpu": s, "rss_kb": n, "code": n or null, "speed": r, "cpu_speed": r,
     "stdout": n, "stderr": n, "spans": n}

(code is null on a timeout, and the last three are byte counts), followed by
that many bytes of the child's stdout, stderr and span pipe.  A traced child
gets its span pipe as file descriptor 3, named by PERFBENCH_TRACE_FD.  The
launcher exits at end of input.

Host speed.  On a shared host the speed of pure-Python code swings by up to 2x
over a few seconds and drifts by 20% over minutes, in CPU time as well as in
wall time, and that, not the program, set the spread between runs.  With
"sample" set, the launcher measures the host while the child runs: every
SAMPLE_EVERY_S of the child's run it stops the child (SIGSTOP), runs a fixed
pure-Python loop for SAMPLE_S, and lets the child go on (SIGCONT); it runs the
loop once more, shorter, after the child exits.  "speed" and "cpu_speed" are
the loop's iterations per wall and per CPU second over REF_SPEED (1.0 when not
sampling), and "wall" leaves out the stopped time.  The loop runs no program
code, so a change to the program moves wall x speed as much as wall.
"""
import json
import os
import selectors
import signal
import sys
import time

TRACE_FD = 3
SAMPLE_EVERY_S = 0.25
SAMPLE_S = 0.025
# Loop iterations per second taken as speed 1.0: about the median of the
# 2-vCPU host the benchmark was written on.
REF_SPEED = 1.2e7
REF_CHUNK = 5_000


def reference(seconds, totals):
    """Run a fixed loop for `seconds` (at least one chunk); add iterations, wall, CPU to totals."""
    n = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        s = 0
        for i in range(REF_CHUNK):
            s += i * i % 7
        n += REF_CHUNK
        wall = time.perf_counter() - wall0
        if wall >= seconds:
            break
    for k, v in enumerate((n, wall, time.process_time() - cpu0)):
        totals[k] += v


def spawn(argv, env, timeout, trace, sample):
    if trace:
        env = {**env, "PERFBENCH_TRACE_FD": str(TRACE_FD)}
    pipes = [os.pipe() for _ in range(3 if trace else 2)]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    actions += [(os.POSIX_SPAWN_DUP2, w, fd) for (_, w), fd in zip(pipes, (1, 2, TRACE_FD))]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    streams = {}
    for r, w in pipes:
        os.close(w)
        streams[r] = []
    code_known = True
    ref = [0, 0.0, 0.0]  # iterations, wall and CPU seconds of the reference loop
    paused = 0.0
    resumed = start
    with selectors.DefaultSelector() as sel:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            now = time.perf_counter()
            remaining = start + timeout - now
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                code_known = False
                break
            if sample and now - resumed >= SAMPLE_EVERY_S:
                os.kill(pid, signal.SIGSTOP)
                try:
                    reference(SAMPLE_S, ref)
                finally:
                    os.kill(pid, signal.SIGCONT)
                resumed = time.perf_counter()
                paused += resumed - now
                continue
            if sample:
                remaining = min(remaining, resumed + SAMPLE_EVERY_S - now)
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    streams[key.fd].append(chunk)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    if sample:
        reference(min(SAMPLE_S, 0.2 * (end - resumed)), ref)
    outputs = [b"".join(streams[r]) for r, _ in pipes] + [b""] * (3 - len(pipes))
    for r, _ in pipes:
        os.close(r)
    header = {
        "wall": end - start - paused,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status) if code_known else None,
        "speed": ref[0] / ref[1] / REF_SPEED if sample else 1.0,
        "cpu_speed": ref[0] / max(ref[2], 1e-9) / REF_SPEED if sample else 1.0,
        "stdout": len(outputs[0]),
        "stderr": len(outputs[1]),
        "spans": len(outputs[2]),
    }
    return header, outputs


def main():
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        request = json.loads(line)
        header, outputs = spawn(request["argv"], request["env"], request["timeout"],
                                request["trace"], request["sample"])
        out.write(json.dumps(header).encode() + b"\n")
        for data in outputs:
            out.write(data)
        out.flush()


if __name__ == "__main__":
    main()
