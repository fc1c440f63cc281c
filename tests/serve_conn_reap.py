#!/usr/bin/env python3
"""The TCP daemon releases the threads of finished connections.

Usage: serve_conn_reap.py <example_sssp_serve> <graph> [daemon flags...]

Starts the daemon on a free port and opens 200 connections one after
another; each sends one `q` line, reads its answer and hangs up. The
daemon's VmSize (/proc/<pid>/status) must not grow by more than 200 MB
over them. Exits 1 otherwise: a connection thread that is never joined
keeps its stack mapped until shutdown, a few MB per connection served.
"""
import socket
import subprocess
import sys
import time

CONNECTIONS = 200
MAX_GROWTH_KB = 200 * 1024


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def connect(proc, port, deadline):
    """Connects once the daemon listens; fails fast if it has exited."""
    while True:
        if proc.poll() is not None:
            sys.exit(f"FAILED: daemon exited with {proc.returncode} "
                     "before accepting a connection")
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=30)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def query_once(proc, port, deadline):
    """One connection: a `q` line, its answer, then hang up."""
    with connect(proc, port, deadline) as conn:
        conn.sendall(b"q 0 1\n")
        reply = conn.makefile().readline().strip()
    if not reply.isdigit():
        sys.exit(f"FAILED: `q 0 1` got {reply!r}, want a distance")


def vm_size_kb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1])
    sys.exit("FAILED: no VmSize line in /proc/<pid>/status")


def main():
    daemon, graph, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
    port = free_port()
    proc = subprocess.Popen([daemon, graph, *flags, "--port", str(port)],
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    try:
        query_once(proc, port, deadline)  # the first thread sets up the rest
        before = vm_size_kb(proc.pid)
        for _ in range(CONNECTIONS):
            query_once(proc, port, deadline)
        after = vm_size_kb(proc.pid)
    finally:
        proc.kill()
        proc.wait()
    growth = after - before
    print(f"VmSize {before} kB -> {after} kB over {CONNECTIONS} connections")
    if growth > MAX_GROWTH_KB:
        sys.exit(f"FAILED: VmSize grew by {growth} kB, over the "
                 f"{MAX_GROWTH_KB} kB bound: finished connection threads "
                 "are not joined")


if __name__ == "__main__":
    main()
