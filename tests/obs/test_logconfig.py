"""stderr stays quiet until logging is turned on.

The ``repro`` logger carries a :class:`logging.NullHandler`, so the
warnings a faulty run logs never reach Python's last-resort stderr
handler — while :func:`configure_logging`, root handlers and pytest's
``caplog`` still receive every record.
"""

import io
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.obs import configure_logging, repro_logger

SRC = Path(__file__).resolve().parents[2] / "src"

#: Four reliable transfers over one link with a 4 s MTBF fault
#: injector: every fault and every retry is logged at warning level.
_LOADED_RUN = textwrap.dedent("""
    import logging
    import sys

    from repro.grid import DataGrid
    from repro.gridftp import (
        GridFtpClient, GridFtpServer, ReliableFileTransfer,
        TransferFaultInjector,
    )
    from repro.units import MiB, mbit_per_s, megabytes

    if sys.argv[1] == "bare":
        logging.getLogger("repro").handlers.clear()
    grid = DataGrid(seed=3)
    for name, site in (("src", "SITE-A"), ("dst", "SITE-B")):
        grid.add_host(name, site, cores=2, disk_bandwidth=500e6,
                      disk_capacity=500e9)
    grid.connect("src", "dst", mbit_per_s(100), latency=0.0005)
    GridFtpServer(grid, "src")
    rft = ReliableFileTransfer(
        GridFtpClient(grid, "dst"), marker_interval_bytes=8 * MiB,
        max_attempts=100, retry_backoff=1.0,
        fault_injector=TransferFaultInjector(grid, 4.0),
    )
    runs = []
    for index in range(4):
        grid.host("src").filesystem.create(f"f{index}", megabytes(32))
        runs.append(grid.sim.process(rft.get("src", f"f{index}")))
    grid.sim.run()
    print(sum(run.value.faults for run in runs))
""")


def _run(mode):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", _LOADED_RUN, mode],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )


def test_loaded_run_writes_nothing_to_stderr():
    quiet = _run("default")
    assert int(quiet.stdout) > 0  # faults happened and were logged
    assert quiet.stderr == ""


def test_without_the_null_handler_the_same_run_would_warn():
    """The run above is a real check: its warnings need a handler."""
    bare = _run("bare")
    assert "retrying" in bare.stderr


def test_configure_logging_still_emits():
    logger = repro_logger()
    level, handlers = logger.level, list(logger.handlers)
    stream = io.StringIO()
    try:
        configure_logging("WARNING", stream=stream)
        logging.getLogger("repro.gridftp.reliable").warning("retrying x")
    finally:
        logger.handlers[:] = handlers
        logger.setLevel(level)
    assert stream.getvalue() == "WARNING repro.gridftp.reliable: retrying x\n"


def test_records_still_reach_root_handlers(caplog):
    with caplog.at_level(logging.WARNING):
        logging.getLogger("repro.gridftp.reliable").warning("retrying y")
    assert [record.getMessage() for record in caplog.records] == [
        "retrying y"
    ]
