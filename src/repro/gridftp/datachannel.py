"""The data-channel engine shared by FTP and GridFTP.

Moving a payload between two hosts means: establish the data
connection(s), then drive one flow per TCP stream through the network
(and through both endpoints' disk/CPU resource channels), then pay the
mode's framing CPU cost.  All protocol flavours reduce to this engine
with different (mode, streams) arguments.
"""

from repro.network.tcp import TCPModel, TCPParameters
from repro.sim import AllOf, Interrupt

__all__ = ["DataChannelResult", "run_data_transfer"]


class DataChannelResult:
    """Outcome of a data-channel run."""

    def __init__(self, startup_seconds, data_seconds, wire_bytes):
        self.startup_seconds = float(startup_seconds)
        self.data_seconds = float(data_seconds)
        self.wire_bytes = float(wire_bytes)

    def __repr__(self):
        return (
            f"<DataChannelResult startup={self.startup_seconds:.3f}s "
            f"data={self.data_seconds:.3f}s>"
        )


def negotiated_tcp_model(src_host, dst_host):
    """TCP model for a connection between two hosts.

    The effective window is the smaller of the two stacks' maxima (the
    receiver advertises its window; the sender cannot exceed its own).
    """
    params = TCPParameters(
        mss=min(src_host.tcp.mss, dst_host.tcp.mss),
        max_window=min(src_host.tcp.max_window, dst_host.tcp.max_window),
        initial_window=min(
            src_host.tcp.initial_window, dst_host.tcp.initial_window
        ),
    )
    return TCPModel(params)


def run_data_transfer(grid, src_name, dst_name, payload_bytes, mode,
                      streams=1, label=None):
    """Move ``payload_bytes`` from ``src_name`` to ``dst_name``.

    A generator returning a :class:`DataChannelResult`.  ``streams``
    parallel TCP connections are opened concurrently; the payload (plus
    the mode's framing overhead) is split evenly across them, as MODE E's
    round-robin block dispatch does.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if mode.max_streams is not None and streams > mode.max_streams:
        raise ValueError(
            f"{mode.name} mode supports at most {mode.max_streams} stream(s)"
        )
    if payload_bytes < 0:
        raise ValueError(f"negative payload {payload_bytes}")

    sim = grid.sim
    src_host = grid.host(src_name)
    dst_host = grid.host(dst_name)
    path = grid.path(src_name, dst_name)
    tcp = negotiated_tcp_model(src_host, dst_host)

    wire_bytes = mode.wire_bytes(payload_bytes)
    # Connections are opened in parallel, so the slowest (identical)
    # startup bounds them all.
    startup = tcp.startup_time(path)
    start = sim.now
    yield sim.timeout(startup)

    data_start = sim.now
    if wire_bytes > 0.0:
        per_stream = wire_bytes / streams
        cap = tcp.stream_cap(path)
        extra = src_host.transfer_source_links() + dst_host.transfer_sink_links()
        flows = grid.network.start_flows(
            src_name, dst_name, per_stream, streams, cap=cap,
            extra_links=extra, label=label,
        )
        try:
            yield AllOf(sim, [flow.done for flow in flows])
        except Interrupt:
            # The transfer was aborted (connection drop, user cancel):
            # tear its flows out of the network before propagating.
            active = [flow for flow in flows if flow.is_active]
            grid.network.abort_flows(active, cause="transfer aborted")
            for flow in active:
                flow.done.defused = True
            raise
        # Last byte still crosses the wire after the sender finishes.
        yield sim.timeout(path.latency)

    framing = mode.framing_cpu_seconds(payload_bytes)
    if framing > 0.0:
        yield sim.timeout(framing)
    data_seconds = sim.now - data_start

    return DataChannelResult(
        startup_seconds=data_start - start,
        data_seconds=data_seconds,
        wire_bytes=wire_bytes,
    )
