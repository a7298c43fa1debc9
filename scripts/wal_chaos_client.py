#!/usr/bin/env python3
"""Crash-recovery client for the WAL chaos harness (DESIGN.md §12).

Each cycle of scripts/wal_chaos.sh starts `streamhist_tool serve --wal-dir
... --wal-policy always`, runs this client, and SIGKILLs the server mid-burst.
The client keeps a JSON state file across cycles with two counters:

  sent   — appends handed to the kernel (incremented BEFORE sending)
  acked  — appends whose OK reply was read (incremented after the ack)

and on every (re)connect asserts the durability contract against the
recovered server:

  acked <= COUNT(stream) <= sent

The left inequality is acked-implies-durable: a value acked under policy
"always" must survive any later SIGKILL. The right allows ghost records —
a record fsynced (or page-cached and later flushed) whose ack never reached
the client is durable-but-unacked, which the one-way invariant permits.

A connection reset mid-burst is the expected outcome (the harness killed
the server) and exits 0; only an invariant violation or a protocol error
exits 1. usage: wal_chaos_client.py <port> <statefile> <max_appends>
"""

import json
import os
import socket
import sys

STREAM = "chaos0"


def load_state(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"sent": 0, "acked": 0, "cycles": 0}


def save_state(path, state):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def read_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def read_reply(self):
        """(ok, lines) for OK replies, (False, [err line]) for ERR, None on EOF."""
        head = self.read_line()
        if head is None:
            return None
        if head.startswith("OK "):
            lines = []
            for _ in range(int(head.split()[1])):
                line = self.read_line()
                if line is None:
                    return None
                lines.append(line)
            return True, lines
        if head.startswith("ERR "):
            return False, [head]
        raise AssertionError(f"unparseable reply head: {head!r}")


def main():
    port = int(sys.argv[1])
    state_path = sys.argv[2]
    max_appends = int(sys.argv[3])
    state = load_state(state_path)
    state["cycles"] += 1

    conn = Connection(port)

    # Ensure the stream exists: OK on the first-ever cycle, a typed
    # ALREADY_EXISTS after any recovery (which is itself evidence the
    # CREATE record survived).
    conn.sock.sendall(f"CREATE {STREAM} 4096 8\n".encode())
    reply = conn.read_reply()
    if reply is None:
        print("wal_chaos_client: server closed during CREATE")
        return 1
    if not reply[0] and "EXISTS" not in reply[1][0].upper():
        print(f"wal_chaos_client: unexpected CREATE error: {reply[1][0]}")
        return 1

    # The durability check against the recovered state.
    conn.sock.sendall(f"COUNT {STREAM}\n".encode())
    reply = conn.read_reply()
    if reply is None or not reply[0]:
        print(f"wal_chaos_client: COUNT failed: {reply}")
        return 1
    count = int(reply[1][0])
    if not state["acked"] <= count <= state["sent"]:
        print(
            f"wal_chaos_client: DURABILITY VIOLATION cycle {state['cycles']}: "
            f"acked={state['acked']} count={count} sent={state['sent']}"
        )
        return 1
    # Flushed: the harness waits for this line while the client keeps
    # running, and a block-buffered stdout would hold it back.
    print(
        f"wal_chaos_client: cycle {state['cycles']} recovered ok: "
        f"acked={state['acked']} <= count={count} <= sent={state['sent']}",
        flush=True,
    )
    save_state(state_path, state)

    # Append until the harness kills the server (or max_appends, whichever
    # first). `sent` counts before the write reaches the kernel; `acked`
    # only after the OK is read. The state file is rewritten on exit — this
    # process outlives the server, so in-memory counters are safe.
    try:
        for _ in range(max_appends):
            value = state["sent"] + 1
            state["sent"] += 1
            conn.sock.sendall(f"APPEND {STREAM} {value}\n".encode())
            reply = conn.read_reply()
            if reply is None:
                break  # server killed: everything un-acked stays un-acked
            if not reply[0]:
                print(f"wal_chaos_client: append refused: {reply[1][0]}")
                return 1
            state["acked"] += 1
    except (ConnectionResetError, BrokenPipeError, socket.timeout):
        pass  # the SIGKILL arrived mid-send or mid-recv; expected
    finally:
        save_state(state_path, state)

    print(
        f"wal_chaos_client: cycle {state['cycles']} burst done: "
        f"acked={state['acked']} sent={state['sent']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
