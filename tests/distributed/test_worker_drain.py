"""The worker's drain loop: one thread hop per lease, one result per cell.

The contracts pinned here:

* each result is sent before the next lease entry is popped;
* a ``revoke`` arriving while cell k runs drops only the entries not yet
  popped and reports k as ``kept``;
* the drain is bound to its own connection: once that comm is closed it
  stops at the next cell and never touches another connection's backlog;
* the scheduler has no way to cancel a leased cell: a ``cancel`` frame is
  a protocol error.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque

import pytest

from repro.distributed import protocol
from repro.distributed.comm.core import CommClosedError
from repro.distributed.worker import AsyncWorker
from repro.experiments.grid import CellFunction, expand_grid


def metrics(seed, i):
    return {"i": i, "value": seed % 101}


class RecordingComm:
    """A comm stub recording synchronous sends; closes after N results."""

    def __init__(self, close_after_results=None):
        self.frames = []
        self.closed = False
        self.close_after_results = close_after_results

    def send_sync(self, message):
        if self.closed:
            raise CommClosedError("closed")
        self.frames.append(dict(message))
        results = [frame for frame in self.frames if frame["op"] == "result"]
        if self.close_after_results is not None and len(results) >= self.close_after_results:
            self.closed = True

    def results(self):
        return [frame["index"] for frame in self.frames if frame["op"] == "result"]


def entries(cells, campaign="c1"):
    return [
        {"campaign": campaign, "index": i, "attempt": 1,
         "cell": protocol.encode_payload(cell)}
        for i, cell in enumerate(cells)
    ]


def worker_with_lease(run, cells):
    worker = AsyncWorker("inproc://drain-test")
    worker._fn = ("c1", run)
    worker._backlog = deque(entries(cells))
    return worker


class TestDrainLoop:
    def test_every_entry_streams_one_result_in_lease_order(self):
        cells = expand_grid({"i": list(range(5))}, repetitions=1, base_seed=3)
        fn = CellFunction(metrics)
        worker = worker_with_lease(fn, cells)
        comm = RecordingComm()
        worker._drain(comm, worker._backlog)
        assert comm.results() == [0, 1, 2, 3, 4]
        outcomes = [protocol.decode_payload(frame["outcome"])
                    for frame in comm.frames if frame["op"] == "result"]
        assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        assert worker.cells_executed == 5 and not worker._backlog

    def test_revoke_during_cell_k_drops_only_unpopped_entries(self):
        cells = expand_grid({"i": list(range(4))}, repetitions=1, base_seed=3)
        fn = CellFunction(metrics)
        running, release = threading.Event(), threading.Event()
        sent_before_k = []

        def blocking(cell):
            if cell.params_dict["i"] == 1:
                sent_before_k.extend(comm.results())
                running.set()
                assert release.wait(10.0)
            return fn(cell)

        worker = worker_with_lease(blocking, cells)
        comm = RecordingComm()
        drain = threading.Thread(target=worker._drain, args=(comm, worker._backlog))
        drain.start()
        try:
            assert running.wait(10.0)
            confirmation = worker._revoke(
                {"op": "revoke", "campaign": "c1", "indices": [1, 2, 3]}
            )
        finally:
            release.set()
            drain.join(10.0)
        assert sent_before_k == [0]  # cell 0's result left before cell 1 began
        assert confirmation["indices"] == [2, 3]
        assert confirmation["kept"] == [1]
        assert comm.results() == [0, 1]
        assert worker.cells_revoked == 2

    def test_a_closed_connection_stops_the_drain_at_the_next_cell(self):
        cells = expand_grid({"i": list(range(4))}, repetitions=1, base_seed=3)
        fn = CellFunction(metrics)
        executed = []

        def logged(cell):
            executed.append(cell.params_dict["i"])
            return fn(cell)

        worker = worker_with_lease(logged, cells)
        old_backlog = worker._backlog
        comm = RecordingComm(close_after_results=1)  # dropped after result 0
        # The next connection's lease, already installed on the worker.
        worker._backlog = deque(entries(cells, campaign="c2"))
        with pytest.raises(protocol.ConnectionClosed):
            worker._drain(comm, old_backlog)
        assert executed == [0]
        assert [entry["index"] for entry in old_backlog] == [1, 2, 3]
        assert [entry["campaign"] for entry in worker._backlog] == ["c2"] * 4
        assert comm.results() == [0]



class ScriptedComm:
    """A comm stub whose ``recv`` replays a fixed list of frames."""

    def __init__(self, frames):
        self.frames = list(frames)

    async def recv(self):
        return self.frames.pop(0)


class TestReaderFrames:
    def test_a_cancel_frame_is_a_protocol_error(self):
        worker = AsyncWorker("inproc://drain-test")

        async def read():
            worker._wake = asyncio.Event()
            await worker._reader(ScriptedComm([
                {"op": "cancel", "campaign": "c1", "index": 0, "attempt": 1},
            ]))

        with pytest.raises(protocol.ProtocolError, match="'cancel'"):
            asyncio.run(read())
