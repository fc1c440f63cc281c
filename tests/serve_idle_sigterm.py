#!/usr/bin/env python3
"""SIGTERM stops the TCP daemon even while a client sits idle.

Usage: serve_idle_sigterm.py <example_sssp_serve> <graph> [daemon flags...]

Starts the daemon on a free port. One client sends `epoch`, reads `1` and
stays connected without sending more. SIGTERM must then make the daemon
exit 0 within 10 s and print its stats line on stderr. Exits 1 otherwise;
a daemon that joins a connection thread still blocked in read() never
exits and fails here.
"""
import signal
import socket
import subprocess
import sys
import time


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


def main():
    daemon, graph, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
    port = free_port()
    proc = subprocess.Popen([daemon, graph, *flags, "--port", str(port)],
                            stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60
    idle = None
    try:
        idle = connect(proc, port, deadline)
        idle.sendall(b"epoch\n")
        reply = idle.makefile().readline().strip()
        if reply != "1":
            sys.exit(f"FAILED: client got {reply!r}, want '1'")
        proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            sys.exit("FAILED: daemon still running 10 s after SIGTERM "
                     "with an idle client connected")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if idle is not None:
            idle.close()
    if proc.returncode != 0:
        sys.exit(f"FAILED: daemon exited with {proc.returncode}")
    if "sssp_serve: accepted=" not in err:
        sys.exit(f"FAILED: no stats line on stderr: {err!r}")
    print("SIGTERM with an idle client: daemon exited 0 and printed stats")


if __name__ == "__main__":
    main()
