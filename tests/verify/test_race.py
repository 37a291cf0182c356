"""Bounded model checker for the lock-free protocols (repro.verify.race).

Three layers: the generic explicit-state search engine
(``explore_states``), the three protocol models (clean proofs at every
bounded scope, every seeded mutant firing with a witness trace), and
the dynamic-half selfcheck that replays the same corruptions through
the live sanitizer hooks.
"""

import pytest

from repro.simmpi import sanitize
from repro.verify.commgraph import explore_states
from repro.verify.race import (
    EPOCH_MUTANTS,
    RING_MUTANTS,
    RUN_MUTANTS,
    SLOT_MUTANTS,
    STREAM_MUTANTS,
    check_protocols,
    descriptor_ring_model,
    epoch_model,
    sanitizer_selfcheck,
    slot_ring_model,
)

# -- explore_states engine ----------------------------------------------------


def test_explore_states_clean_run():
    # counter 0..3, one transition per step: clean, no violation/stuck
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 3 else [],
        lambda s: s == 3,
    )
    assert ex.ok
    assert ex.stuck is None and ex.violation is None
    assert ex.states == 4


def test_explore_states_reports_stuck_with_trace():
    # state 2 has no successors and is not final -> stuck
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 2 else [],
        lambda s: s == 3,
    )
    assert not ex.ok
    assert ex.stuck == 2
    assert ex.trace == ["inc->1", "inc->2"]
    assert "inc->1" in ex.witness()


def test_explore_states_check_fires_violation():
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 3 else [],
        lambda s: s == 3,
        check=lambda s: "boom: state two" if s == 2 else "",
    )
    assert not ex.ok
    assert ex.violation == 2
    assert ex.message == "boom: state two"
    assert len(ex.trace) == 2


def test_explore_states_state_cap():
    with pytest.raises(RuntimeError, match="state"):
        explore_states(
            0,
            lambda s: [("inc", s + 1)],
            lambda s: False,
            max_states=16,
        )


# -- slot-ring model ----------------------------------------------------------


def test_slot_ring_clean_at_bounded_scopes():
    for writers, depth, messages in ((2, 2, 2), (2, 2, 3), (3, 2, 2)):
        ex = slot_ring_model(writers, depth, messages)
        assert ex.ok, ex.witness()
        assert ex.states > 10


@pytest.mark.parametrize("mutant,expect", sorted(SLOT_MUTANTS.items()))
def test_slot_ring_mutants_fire(mutant, expect):
    ex = slot_ring_model(2, 2, 2, mutant=mutant)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    # every counterexample carries a non-empty transition witness
    assert ex.trace
    assert ex.witness()


def test_slot_ring_runs_clean_at_depth_three():
    for width in (1, 2):
        ex = slot_ring_model(2, 3, 2, width=width)
        assert ex.ok, ex.witness()
        assert ex.states > 10


def test_slot_ring_width_one_is_the_one_slot_ring():
    for writers, depth, messages in ((2, 2, 2), (3, 2, 2)):
        assert (slot_ring_model(writers, depth, messages, width=1).states
                == slot_ring_model(writers, depth, messages).states)


@pytest.mark.parametrize("mutant,expect", sorted(RUN_MUTANTS.items()))
def test_slot_ring_run_mutants_fire(mutant, expect):
    ex = slot_ring_model(2, 3, 2, mutant=mutant, width=2)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    assert ex.trace
    # the bug is invisible to a ring whose messages take one slot each
    assert slot_ring_model(2, 3, 2, mutant=mutant, width=1).ok


def test_slot_ring_streamed_messages_clean():
    """Messages streamed as several ring-wide runs, one writer or two
    interleaving theirs, deliver whole and never reuse a run early."""
    for writers, messages in ((1, 2), (2, 1)):
        ex = slot_ring_model(writers, 2, messages, width=2, chunks=3)
        assert ex.ok, ex.witness()
        assert ex.states > 10


@pytest.mark.parametrize("mutant,expect", sorted(STREAM_MUTANTS.items()))
def test_slot_ring_stream_mutants_fire(mutant, expect):
    ex = slot_ring_model(2, 2, 1, mutant=mutant, width=2, chunks=2)
    kind = expect.split(":", 1)[1]
    assert ex.violation is not None
    assert ex.message.startswith(kind)
    assert ex.trace
    # the bug is invisible when no message streams
    assert slot_ring_model(2, 2, 1, mutant=mutant, width=2).ok


def test_slot_ring_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown slot-ring mutant"):
        slot_ring_model(mutant="off_by_one")


# -- descriptor-ring model ----------------------------------------------------


def test_descriptor_ring_clean_at_bounded_scopes():
    for writers, depth, messages in ((1, 2, 3), (2, 2, 3), (1, 1, 2)):
        ex = descriptor_ring_model(writers, depth, messages)
        assert ex.ok, ex.witness()
        assert ex.states > 10


@pytest.mark.parametrize("mutant,expect", sorted(RING_MUTANTS.items()))
def test_descriptor_ring_mutants_fire(mutant, expect):
    ex = descriptor_ring_model(1, 2, 3, mutant=mutant)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    assert ex.trace
    assert ex.witness()


def test_descriptor_ring_lost_wakeup_needs_a_publish_inside_the_park():
    """The stuck witness of ``lost_wakeup_on_park`` is a publish landing
    between the receiver's emptiness check and its doorbell clear."""
    ex = descriptor_ring_model(1, 2, 1, mutant="lost_wakeup_on_park")
    trace = ex.trace
    park = trace.index("receiver: rings empty, park")
    clear = trace.index("receiver: clear doorbell")
    assert any(t.startswith("writer 0: publish")
               for t in trace[park:clear])


def test_descriptor_ring_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown descriptor-ring mutant"):
        descriptor_ring_model(mutant="skip_post")


# -- epoch model --------------------------------------------------------------


def test_epoch_clean_at_bounded_scopes():
    for writers, epochs in ((1, 1), (2, 2), (3, 2)):
        ex = epoch_model(writers, epochs)
        assert ex.ok, ex.witness()


@pytest.mark.parametrize("mutant,expect", sorted(EPOCH_MUTANTS.items()))
def test_epoch_mutants_fire(mutant, expect):
    ex = epoch_model(2, 2, mutant=mutant)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    assert ex.trace


def test_epoch_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown epoch mutant"):
        epoch_model(mutant="fence_twice")


# -- the full matrix ----------------------------------------------------------


def test_check_protocols_matrix_all_pass():
    results = check_protocols()
    # clean proofs at two scopes per protocol, two run widths, two
    # streamed scopes, and one run per mutant
    assert len(results) == 10 + len(SLOT_MUTANTS) + len(RUN_MUTANTS) \
        + len(STREAM_MUTANTS) \
        + len(RING_MUTANTS) + len(EPOCH_MUTANTS)
    for r in results:
        assert r.passed, f"{r.label}: expected {r.expect}, got {r.outcome}"
    cleans = [r for r in results if r.mutant is None]
    assert all(r.exploration.ok for r in cleans)
    mutants = [r for r in results if r.mutant is not None]
    assert all(not r.exploration.ok for r in mutants)
    assert all(r.exploration.trace for r in mutants)


def test_model_result_labels_are_informative():
    results = check_protocols()
    labels = {r.label for r in results}
    assert any("slot_ring" in x and "mutant=" not in x for x in labels)
    assert any("mutant=skip_wait" in x for x in labels)
    assert any(x.startswith("descriptor_ring[") for x in labels)


# -- dynamic-half selfcheck ---------------------------------------------------


def test_sanitizer_selfcheck_is_clean():
    assert sanitizer_selfcheck() == []


def test_sanitizer_selfcheck_restores_prior_tsan_state():
    was = sanitize.enabled()
    sanitizer_selfcheck()
    assert sanitize.enabled() == was
