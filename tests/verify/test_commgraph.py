"""Communication-graph deadlock detector, validated against the
runtime behavior of the Fig. 5 programs on both backends."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dad import Block, CartesianTemplate, Cyclic, DistArrayDescriptor
from repro.dca.engine import DeliveryPolicy
from repro.dca.fig5 import run_fig5
from repro.errors import DeadlockError, SpmdError
from repro.schedule.builder import build_region_schedule
from repro.verify.commgraph import (
    CommProgram,
    assert_deadlock_free,
    fig5_model,
    prmi_batch_deadlock_model,
    prmi_serving_model,
    transfer_model,
    would_deadlock,
)


def test_fig5_eager_flagged_as_collective_order_mismatch():
    diag = would_deadlock(fig5_model(DeliveryPolicy.EAGER))
    assert diag is not None
    assert diag.kind == "collective-order mismatch"
    # The dump uses the runtime watchdog's "{job} rank {r}" key format
    # over exactly the processes that can block forever.
    assert set(diag.blocked) == {
        "provider rank 0", "callers rank 0", "callers rank 1",
        "callers rank 2"}
    assert diag.cycles, "a wait-for cycle through the provider must exist"
    assert any("provider rank 0" in cyc for cyc in diag.cycles)


def test_fig5_diagnosis_text_is_the_same_under_every_hash_seed():
    """networkx names wait cycles in hash order; the diagnosis rotates
    each to its smallest key and sorts them."""
    code = ("from repro.dca.engine import DeliveryPolicy\n"
            "from repro.verify.commgraph import fig5_model, would_deadlock\n"
            "print(would_deadlock(fig5_model(DeliveryPolicy.EAGER))"
            ".to_error())")
    src = Path(__file__).resolve().parents[2] / "src"
    texts = [subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
    ).stdout for seed in ("0", "1")]
    assert "wait cycle: " in texts[0]
    assert texts[0] == texts[1]


def test_fig5_barrier_is_deadlock_free():
    assert would_deadlock(fig5_model(DeliveryPolicy.BARRIER)) is None
    assert_deadlock_free(fig5_model(DeliveryPolicy.BARRIER))


def test_diagnosis_to_error_matches_runtime_dump_format():
    diag = would_deadlock(fig5_model(DeliveryPolicy.EAGER))
    err = diag.to_error()
    assert isinstance(err, DeadlockError)
    assert set(err.blocked) == set(diag.blocked)
    assert all(" rank " in key for key in err.blocked)
    assert "collective-order mismatch" in str(err)


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_static_verdicts_match_runtime_fig5(backend, monkeypatch):
    """The detector's per-policy verdicts agree with actually running
    the paper's Fig. 5 scenario under each backend."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    assert would_deadlock(fig5_model(DeliveryPolicy.EAGER)) is not None
    with pytest.raises(SpmdError) as exc:
        run_fig5(DeliveryPolicy.EAGER)
    assert any(isinstance(e, DeadlockError)
               for e in exc.value.failures.values())

    assert would_deadlock(fig5_model(DeliveryPolicy.BARRIER)) is None
    out = run_fig5(DeliveryPolicy.BARRIER)
    assert out["timeline"] == ["call2", "call1"]


def test_transfer_models_are_deadlock_free():
    def desc(axis):
        return DistArrayDescriptor(CartesianTemplate([axis]))

    for src, dst in [(desc(Block(32, 4)), desc(Block(32, 3))),
                     (desc(Block(30, 3)), desc(Cyclic(30, 2)))]:
        sched = build_region_schedule(src, dst)
        assert would_deadlock(transfer_model(sched)) is None


def test_receive_cycle_detected():
    prog = CommProgram()
    a = prog.proc("left", 0)
    b = prog.proc("right", 0)
    prog.recv(a, b)
    prog.send(a, b)
    prog.recv(b, a)
    prog.send(b, a)
    diag = would_deadlock(prog)
    assert diag is not None
    assert diag.kind == "receive cycle"
    assert set(diag.blocked) == {"left rank 0", "right rank 0"}
    assert sorted(map(sorted, diag.cycles)) == [
        ["left rank 0", "right rank 0"]]
    with pytest.raises(DeadlockError):
        assert_deadlock_free(prog)


def test_consistent_exchange_passes():
    prog = CommProgram()
    a = prog.proc("left", 0)
    b = prog.proc("right", 0)
    prog.send(a, b, 1)      # a buffered data send met by a blocking
    prog.recv(b, a, 1)      # receive, each way
    prog.send(b, a, 2)
    prog.recv(a, b, 2)
    assert would_deadlock(prog) is None


def test_barrier_order_mismatch_detected():
    # a passes "alpha" then "beta"; b does them in the opposite order —
    # the classic collective-order mismatch.
    from repro.verify.commgraph import BarrierOp

    prog = CommProgram()
    a, b = prog.procs("job", 2)
    alpha = BarrierOp((a, b), "alpha")
    beta = BarrierOp((a, b), "beta")
    prog.add(a, alpha)
    prog.add(a, beta)
    prog.add(b, beta)
    prog.add(b, alpha)
    diag = would_deadlock(prog)
    assert diag is not None
    assert diag.kind == "collective-order mismatch"
    assert "alpha" in diag.blocked["job rank 0"]
    assert "beta" in diag.blocked["job rank 1"]


def test_tag_mismatch_is_a_deadlock():
    prog = CommProgram()
    a = prog.proc("left", 0)
    b = prog.proc("right", 0)
    prog.send(a, b, tag=7)
    prog.recv(b, a, tag=8)
    diag = would_deadlock(prog)
    assert diag is not None
    assert "tag=8" in diag.blocked["right rank 0"]


def test_nondeterministic_commitment_explored():
    """A provider with two pending headers deadlocks only on one
    commitment choice — the detector must still find it."""
    prog = fig5_model(DeliveryPolicy.EAGER)
    # Sanity: under EAGER both call headers can be in flight at the
    # start, so a lucky runtime interleaving completes; the static
    # check reports the unlucky one.
    assert would_deadlock(prog) is not None


# -- one-sided (RMA) epoch model ---------------------------------------------

def test_rma_channel_model_clean_and_misuse():
    from repro.verify.commgraph import rma_channel_model

    assert would_deadlock(rma_channel_model(steps=4)) is None
    diag = would_deadlock(rma_channel_model(misuse=True))
    assert diag is not None
    assert diag.kind == "epoch-order mismatch (one-sided)"
    assert "rma_put" in diag.blocked["prod rank 0"]
    assert any("prod rank 0" in cyc and "cons rank 0" in cyc
               for cyc in diag.cycles)


def test_epoch_violations_structural_rules():
    prog = CommProgram()
    w = prog.proc("prod", 0)
    o = prog.proc("cons", 0)
    win = prog.window(o, "field")
    prog.put(w, win)
    prog.put(w, win)
    prog.epoch_open(win)
    prog.read(win)                    # inside the open epoch: torn
    prog.fence(win, (w,))
    violations = prog.epoch_violations()
    assert len(violations) == 2
    assert any("write outside an open epoch" in v for v in violations)
    assert any("torn read" in v for v in violations)
    # well-ordered program: no violations
    from repro.verify.commgraph import rma_channel_model
    assert rma_channel_model(steps=3).epoch_violations() == []


def test_rma_epoch_misuse_static_matches_live_procs():
    """The static epoch rule and the runtime watchdog must agree: a
    producer that pushes more epochs than the consumer ever opens is
    (a) flagged before launch and (b) aborted by the watchdog with an
    rma_put blocked-state dump when actually run."""
    import numpy as np
    from repro.dad import DistributedArray
    from repro.highlevel import Coupler
    from repro.simmpi import run_coupled
    from repro.simmpi.intercomm import default_nameservice

    # static: two puts against a single opened epoch
    prog = CommProgram()
    src = prog.proc("prod", 0)
    dst = prog.proc("cons", 0)
    win = prog.window(dst, "field")
    prog.put(src, win)
    prog.put(src, win)
    prog.epoch_open(win)
    prog.fence(win, (src,))
    prog.read(win)
    diag = would_deadlock(prog)
    assert diag is not None
    assert "rma_put" in diag.blocked["prod rank 0"]
    assert prog.epoch_violations()    # surplus put flagged structurally

    # live: same shape on real processes — push twice, pull once
    src_desc = DistArrayDescriptor(CartesianTemplate([Block(64, 1)]))
    dst_desc = DistArrayDescriptor(CartesianTemplate([Block(64, 1)]))

    def producer(comm):
        coupler = Coupler("rma-misuse", default_nameservice)
        da = DistributedArray.from_global(src_desc, 0, np.arange(64.0))
        chan = coupler.open(comm, "source", da, tier="rma")
        chan.push()
        chan.push()                   # no matching pull: never licensed

    def consumer(comm):
        coupler = Coupler("rma-misuse", default_nameservice)
        chan = coupler.open(comm, "destination", dst_desc, tier="rma")
        chan.pull()
        chan.close()

    with pytest.raises(SpmdError) as ei:
        run_coupled([("prod", 1, producer, ()), ("cons", 1, consumer, ())],
                    deadlock_timeout=3.0, backend="procs")
    assert any("rma_put" in str(e) for e in ei.value.failures.values())


# -- PRMI serving-tier models -------------------------------------------------

def test_prmi_batched_serving_model_is_deadlock_free():
    """One reply frame per request frame + flush-without-recv: every
    interleaving of the shipped batched protocol completes."""
    assert_deadlock_free(prmi_serving_model(callers=3, flushes=2))


def test_prmi_batch_without_deadline_deadlocks():
    """A server that withholds replies to fill a reply batch, against a
    caller blocked on its first future before flushing again: the wait
    cycle the flush deadline exists to rule out."""
    diag = would_deadlock(prmi_batch_deadlock_model())
    assert diag is not None
    assert diag.kind == "receive cycle"
    assert any({"caller rank 0", "server rank 0"} <= set(c)
               for c in diag.cycles)
