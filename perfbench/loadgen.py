"""Open-loop load generator: one thread, a seeded arrival schedule, and at
most a few pipelined connections.

Requests are encoded before the clock starts, so the generator's own work
while timing is a socket write per arrival and a line split per reply. Each
request is sent when it falls due, whether or not earlier replies have come
back, and its latency runs from the due time, so a stall in the server is
charged to every request queued behind it. The server answers each
connection's requests in order, so replies are matched to requests by
position.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from dataclasses import dataclass

import numpy as np

# After the last arrival, wait this long for outstanding replies before
# counting them as lost.
DRAIN_TIMEOUT_S = 8.0
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> list[float]:
    """Arrival times in [0, duration_s) of a Poisson process at `rate`."""
    out, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration_s:
            return out
        out.append(t)


@dataclass
class LoopResult:
    latency_ms: list[float | None]   # per request; None when no reply came
    late_ms: list[float]             # send time minus due time
    replies: list[bytes | None]      # raw reply lines
    backlog_mid: int                 # requests outstanding at mid-schedule
    backlog_end: int                 # requests outstanding at the last arrival


def run_open_loop(port: int, lines: list[bytes], offsets: list[float],
                  connections: int, duration_s: float) -> LoopResult:
    n = len(lines)
    conns = []
    # select(2) takes a microsecond timeout; epoll rounds up to whole
    # milliseconds, which would make every send up to 1 ms late.
    sel = selectors.SelectSelector()
    for c in range(connections):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conns.append({"sock": sock, "out": bytearray(), "inbuf": b"",
                      "pending": collections.deque(), "open": True})
        sel.register(sock, selectors.EVENT_READ, c)

    latency: list[float | None] = [None] * n
    late = [0.0] * n
    replies: list[bytes | None] = [None] * n
    due = [0.0] * n
    received = 0
    lost = 0
    backlog_mid = backlog_end = -1
    nxt = 0

    def flush(c: int) -> None:
        conn = conns[c]
        try:
            sent = conn["sock"].send(conn["out"])
        except BlockingIOError:
            sent = 0
        except OSError:
            close(c)
            return
        del conn["out"][:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE
                                         if conn["out"] else 0)
        sel.modify(conn["sock"], events, c)

    def close(c: int) -> None:
        nonlocal lost
        conn = conns[c]
        if not conn["open"]:
            return
        conn["open"] = False
        sel.unregister(conn["sock"])
        conn["sock"].close()
        lost += len(conn["pending"])
        conn["pending"].clear()

    t0 = time.perf_counter() + 0.05
    end_of_schedule = t0 + duration_s
    drain_deadline = end_of_schedule + DRAIN_TIMEOUT_S
    while True:
        now = time.perf_counter()
        while nxt < n and t0 + offsets[nxt] <= now:
            # Send on the connection with the fewest replies outstanding,
            # as a client-side balancer would; the lower index wins ties.
            c = min(range(connections),
                    key=lambda k: (not conns[k]["open"],
                                   len(conns[k]["pending"]), k))
            due[nxt] = t0 + offsets[nxt]
            late[nxt] = (now - due[nxt]) * 1e3
            if conns[c]["open"]:
                conns[c]["out"] += lines[nxt]
                conns[c]["pending"].append(nxt)
                flush(c)
            else:
                lost += 1
            nxt += 1
        if backlog_mid < 0 and now >= t0 + duration_s / 2:
            backlog_mid = nxt - received - lost
        if backlog_end < 0 and now >= end_of_schedule:
            backlog_end = nxt - received - lost
        if received + lost >= n and nxt >= n:
            break
        if now > drain_deadline:
            for c in range(connections):
                close(c)
            break
        if nxt < n:
            timeout = max(0.0, t0 + offsets[nxt] - now)
        else:
            timeout = max(0.0, min(drain_deadline,
                                   end_of_schedule if backlog_end < 0
                                   else drain_deadline) - now)
        for key, events in sel.select(timeout):
            c = key.data
            conn = conns[c]
            if events & selectors.EVENT_WRITE:
                flush(c)
                if not conn["open"]:
                    continue
            if events & selectors.EVENT_READ:
                try:
                    chunk = conn["sock"].recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    close(c)
                    continue
                t_recv = time.perf_counter()
                # Acknowledge at once: a delayed ACK would hold the server's
                # next pipelined reply behind Nagle's algorithm for ~40 ms.
                if QUICKACK is not None:
                    conn["sock"].setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
                buf = conn["inbuf"] + chunk
                *complete, conn["inbuf"] = buf.split(b"\n")
                for line in complete:
                    if not conn["pending"]:
                        continue
                    i = conn["pending"].popleft()
                    latency[i] = (t_recv - due[i]) * 1e3
                    replies[i] = line
                    received += 1
    for c in range(connections):
        close(c)
    sel.close()
    if backlog_end < 0:
        backlog_end = 0
    if backlog_mid < 0:
        backlog_mid = 0
    return LoopResult(latency, late, replies, backlog_mid, backlog_end)
