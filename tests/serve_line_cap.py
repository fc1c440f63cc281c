#!/usr/bin/env python3
"""A request line longer than the daemon's 1 MiB cap is refused, not
buffered without end.

Usage: serve_line_cap.py <example_sssp_serve> <graph> [daemon flags...]

TCP: starts the daemon on a free port, sends 2 MiB without a newline from
one client and expects `error: line too long` followed by the end of that
connection; a second client then asks for `epoch` and expects `1`.
stdin: feeds the daemon 2 MiB without a newline, then a newline and
`epoch`, and expects `error: line too long` and `1`. Exits 1 on any other
reply or when the daemon does not exit cleanly.
"""
import signal
import socket
import subprocess
import sys
import threading
import time

TOO_LONG = b"x" * (2 << 20)
WANT_ERROR = "error: line too long"


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


def send_quietly(sock, data):
    """Sends `data`; the daemon may close the connection before it all
    arrives, which is what the test expects."""
    try:
        sock.sendall(data)
    except OSError:
        pass


def tcp_case(daemon, graph, flags):
    port = free_port()
    proc = subprocess.Popen([daemon, graph, *flags, "--port", str(port)])
    deadline = time.monotonic() + 60
    try:
        with connect(proc, port, deadline) as flood:
            sender = threading.Thread(target=send_quietly,
                                      args=(flood, TOO_LONG), daemon=True)
            sender.start()
            with flood.makefile("rb") as reader:
                reply = reader.readline().decode().strip()
                if reply != WANT_ERROR:
                    sys.exit(f"FAILED: TCP flood got {reply!r}, want "
                             f"{WANT_ERROR!r}")
                try:
                    rest = reader.read()
                except ConnectionResetError:
                    rest = b""
            if rest:
                sys.exit(f"FAILED: TCP flood got more after the error: "
                         f"{rest[:80]!r}")

        with connect(proc, port, deadline) as polite:
            polite.sendall(b"epoch\n")
            reply = polite.makefile().readline().strip()
        if reply != "1":
            sys.exit(f"FAILED: second client got {reply!r}, want '1'")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("FAILED: TCP daemon did not exit on SIGTERM")
    if code != 0:
        sys.exit(f"FAILED: TCP daemon exited with {code}")


def stdin_case(daemon, graph, flags):
    done = subprocess.run([daemon, graph, *flags],
                          input=TOO_LONG + b"\nepoch\n",
                          stdout=subprocess.PIPE, timeout=60)
    lines = done.stdout.decode().splitlines()
    if lines != [WANT_ERROR, "1"]:
        sys.exit(f"FAILED: stdin replies {lines!r}, want "
                 f"{[WANT_ERROR, '1']!r}")
    if done.returncode != 0:
        sys.exit(f"FAILED: stdin daemon exited with {done.returncode}")


def main():
    daemon, graph, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
    tcp_case(daemon, graph, flags)
    stdin_case(daemon, graph, flags)
    print("2 MiB lines refused on TCP and stdin; the daemon kept serving")


if __name__ == "__main__":
    main()
