#!/usr/bin/env python3
"""A TCP client that hangs up without reading its replies must not take
the daemon down with it.

Usage: serve_hangup.py <example_sssp_serve> <graph> [daemon flags...]

Starts the daemon on a free port, sends 20,000 `epoch` lines from one
client and closes that socket without reading a reply, then asks a second
client for `epoch` and expects `1`. Exits 1 when the second client gets
no answer or the daemon does not exit cleanly on SIGTERM; a daemon that
writes to the closed socket with SIGPIPE at its default action dies of
signal 13 and fails here.
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
    proc = subprocess.Popen([daemon, graph, *flags, "--port", str(port)])
    deadline = time.monotonic() + 60
    try:
        rude = connect(proc, port, deadline)
        rude.sendall(b"epoch\n" * 20000)
        rude.close()  # unread replies: the daemon's writes now fail

        with connect(proc, port, deadline) as polite:
            polite.sendall(b"epoch\n")
            reply = polite.makefile().readline().strip()
        if reply != "1":
            sys.exit(f"FAILED: second client got {reply!r}, want '1'")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    if code != 0:
        sys.exit(f"FAILED: daemon exited with {code}")
    print("second client answered after a hang-up; daemon exited 0")


if __name__ == "__main__":
    main()
