"""Pickleable ``node_main`` stand-ins for the controller error paths.

The spawn context pickles child targets by module and qualname, so
these must live in an importable module — monkeypatching
``repro.gcs.proc.controller.node_main`` with a test-local closure
would fail to unpickle in the child.  Each stub models one way a real
node can die on the controller:

* :func:`silent_node_main` — exits before the port rendezvous, so the
  controller's constructor sees EOF on the pipe;
* :func:`mute_node_main` — completes the rendezvous (with a fake port;
  no socket is ever bound) and then drops dead on the first status
  poll, so ``statuses()`` sees EOF mid-conversation.
"""


def silent_node_main(
    pid,
    n_processes,
    algorithm,
    link,
    conn,
    tick_interval=0.005,
    telemetry_dir=None,
):
    """A node that dies before ever reporting its port."""
    conn.close()


def mute_node_main(
    pid,
    n_processes,
    algorithm,
    link,
    conn,
    tick_interval=0.005,
    telemetry_dir=None,
):
    """A node that rendezvouses, then dies on the first status poll."""
    conn.send(("port", pid, 40000 + pid))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] in ("status", "stop"):
            conn.close()
            return


def crashing_node_main(
    pid,
    n_processes,
    algorithm,
    link,
    conn,
    tick_interval=0.005,
    telemetry_dir=None,
):
    """A node that rendezvouses, records some flight, then blows up.

    Exercises the real post-mortem path: the flight ring is dumped via
    :func:`repro.obs.telemetry.recorder.write_crash_dump` before the
    error is surfaced on the pipe — exactly what ``node_main`` does
    when its loop raises.
    """
    from repro.obs.telemetry.recorder import FlightRecorder, write_crash_dump

    recorder = FlightRecorder(pid)
    conn.send(("port", pid, 40000 + pid))
    recorder.record("view_change", view_id=[0, 0], members=[pid])
    recorder.record("store_put", key="doomed", accepted=True, trace="t-0")
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "status":
            error = "Traceback (stub)\nSimulationError: induced crash"
            if telemetry_dir is not None:
                write_crash_dump(recorder, telemetry_dir, error)
            conn.send(("error", pid, error))
            conn.close()
            return
        if message[0] == "stop":
            conn.close()
            return
