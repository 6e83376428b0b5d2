"""Open-loop load generator, run in its own process.

It receives every phase's requests up front, then sends request ``j`` of
a phase at ``start + j / rate`` whether or not earlier requests were
answered, over one connection to the server process.  A receiver thread
timestamps each reply.  Latency is measured from when a request was due,
so a stall also charges the requests queued behind it; how late the
generator itself sent is recorded too.

Messages to the server: ``("req", id, op, cell, payload)``, ``("mark",
phase)`` after a phase has drained, ``("results", arrays)`` and
``("stop",)``.  Replies: ``("rep", id, ok)``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: How long a phase may take to drain after its last request was due.
DRAIN_SECONDS = 10.0


def run(conn) -> None:
    """Entry point of the generator process."""
    phases = conn.recv()
    total = sum(len(requests) for _, _, requests in phases)
    received = np.full(total, np.nan)
    ok = np.zeros(total, dtype=bool)

    def receive() -> None:
        while True:
            message = conn.recv()
            if message[0] == "rep":
                _, rid, good = message
                received[rid] = time.perf_counter()
                ok[rid] = good
            elif message[0] == "stop":
                return

    receiver = threading.Thread(target=receive, name="loadgen-recv", daemon=True)
    receiver.start()

    due = np.zeros(total)
    sent = np.zeros(total)
    phase_of = np.zeros(total, dtype=np.int64)
    rid = 0
    for index, (name, rate, requests) in enumerate(phases):
        start = time.perf_counter() + 0.05
        first = rid
        for j, (op, cell, payload) in enumerate(requests):
            when = start + j / rate
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            due[rid] = when
            sent[rid] = time.perf_counter()
            phase_of[rid] = index
            conn.send(("req", rid, op, cell, payload))
            rid += 1
        give_up = time.perf_counter() + DRAIN_SECONDS
        while np.isnan(received[first:rid]).any() and time.perf_counter() < give_up:
            time.sleep(0.005)
        conn.send(("mark", name))
    conn.send(
        (
            "results",
            {
                "due": due,
                "sent": sent,
                "received": received.copy(),
                "ok": ok.copy(),
                "phase": phase_of,
            },
        )
    )
    conn.send(("stop",))
    receiver.join(DRAIN_SECONDS)
    conn.close()
