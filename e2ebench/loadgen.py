"""Open- and closed-loop HTTP load for ``POST /predict``.

Open loop: ``n = rate · seconds`` arrival times drawn uniformly over the
phase and sorted — a Poisson process conditioned on its count, so every
seed offers exactly the nominal rate — then thinned into one independent
schedule per sender by a seeded coin per arrival.  Each sender owns one
keep-alive connection, opened before timing starts, and sends its
arrivals in order.  Latency runs from when a request was *due*, so a
sender still waiting on an earlier reply charges that wait to the
requests it delays; how late each request went out is recorded too.

Closed loop: each connection sends its next request as soon as the
previous reply arrives.

Every request scheduled is accounted for: it ends as a reply (any
status) or a transport error, never silently dropped.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class Record:
    sample: int
    due: float  # perf_counter seconds
    sent: float
    done: float
    status: int  # 0: transport error
    body: bytes

    @property
    def latency_ms(self) -> float:
        """Due → reply (open loop); sent → reply when due == sent."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.conn.connect()

    def post(self, body: bytes):
        try:
            self.conn.request(
                "POST", "/predict", body, {"Content-Type": "application/json"}
            )
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def schedule(rng: np.random.Generator, rate: float, seconds: float, senders: int, samples: int):
    """Per-sender lists of ``(offset_s, sample)``, thinned from one
    count-conditioned Poisson stream of ``rate`` over ``seconds``."""
    n = int(round(rate * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, n))
    owner = rng.integers(0, senders, n)
    picks = rng.integers(0, samples, n)
    return [
        [(float(offsets[i]), int(picks[i])) for i in np.flatnonzero(owner == s)]
        for s in range(senders)
    ]


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(conns: Sequence[Connection], plan, bodies: Sequence[bytes]) -> List[Record]:
    """Send each sender's schedule on its own connection; returns records
    in no particular order."""
    out: List[List[Record]] = [[] for _ in conns]
    start = time.perf_counter() + 0.05  # every thread is waiting by then

    def sender(index: int) -> None:
        conn, records = conns[index], out[index]
        for offset, sample in plan[index]:
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = conn.post(bodies[sample])
            records.append(Record(sample, due, sent, time.perf_counter(), status, body))

    _run_threads([(lambda i=i: sender(i)) for i in range(len(conns))])
    return [r for records in out for r in records]


def closed_loop(conns: Sequence[Connection], bodies: Sequence[bytes], seconds: float) -> List[Record]:
    """Back-to-back requests on every connection for ``seconds``."""
    out: List[List[Record]] = [[] for _ in conns]
    end = time.perf_counter() + seconds

    def sender(index: int) -> None:
        conn, records = conns[index], out[index]
        i = index
        while True:
            sample = i % len(bodies)
            sent = time.perf_counter()
            status, body = conn.post(bodies[sample])
            done = time.perf_counter()
            records.append(Record(sample, sent, sent, done, status, body))
            i += len(conns)
            if done >= end:
                return

    _run_threads([(lambda i=i: sender(i)) for i in range(len(conns))])
    return [r for records in out for r in records]


def get_json(host: str, port: int, path: str, timeout: float = 30.0) -> Optional[dict]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        data = resp.read()
        return json.loads(data) if resp.status == 200 else None
    except (OSError, http.client.HTTPException, ValueError):
        return None
    finally:
        conn.close()
