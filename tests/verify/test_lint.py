"""Ownership lint pack: each rule fires on a minimal violation, stays
quiet on the idiomatic counterpart, and the shipped source is clean."""

import pathlib
import textwrap

from repro.verify.lint import lint_paths, lint_source

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def lint(code: str, relpath: str = "mod.py"):
    return lint_source(textwrap.dedent(code), path=relpath, relpath=relpath)


# -- V102: escaped marker ----------------------------------------------------

def test_v102_marker_stored_on_attribute():
    hits = lint("""
        def stash(self, view):
            self.pending = payload.Borrowed(view)
    """)
    assert [h.rule for h in hits] == ["V102"]


def test_v102_marker_pushed_into_container():
    hits = lint("""
        def queue_up(out, view):
            out.append(Borrowed(view))
    """)
    assert [h.rule for h in hits] == ["V102"]


def test_v102_local_and_returned_markers_are_fine():
    hits = lint("""
        def wire(pp, flat):
            view = pp.lend(flat)
            if view is not None:
                return payload.Borrowed(view)
            wire = payload.Borrowed(pp.gather(flat))
            return wire
    """)
    assert hits == []


# -- V103: Raw in the procs backend ------------------------------------------

def test_v103_raw_flagged_only_in_procs_modules():
    code = """
        def ship(handle):
            return payload.Raw(handle)
    """
    assert lint(code, "src/repro/simmpi/procs.py") != []
    assert lint(code, "src/repro/simmpi/shm.py") != []
    assert lint(code, "src/repro/simmpi/transport.py") == []


# -- V104: polling sleep loop ------------------------------------------------

def test_v104_sleep_loop_flagged():
    hits = lint("""
        import time
        def wait_for(flag):
            while not flag.is_set():
                time.sleep(0.01)
    """)
    assert [h.rule for h in hits] == ["V104"]


def test_v104_straight_line_sleep_allowed():
    hits = lint("""
        import time
        def stagger(s):
            time.sleep(s)
    """)
    assert hits == []


# -- pragmas and the shipped tree -------------------------------------------

def test_allow_pragma_suppresses_named_rule():
    hits = lint("""
        import time
        def poll(flag):
            while not flag.is_set():
                time.sleep(0.01)  # verify: allow(V104)
    """)
    assert hits == []


def test_shipped_source_tree_is_clean():
    assert lint_paths([SRC]) == []


# -- V105: one-sided put outside an exposure epoch ---------------------------

def test_v105_unguarded_window_put_flagged():
    hits = lint("""
        def step(rwin, values):
            rwin.put(values)
    """)
    assert [h.rule for h in hits] == ["V105"]
    assert "exposure epoch" in hits[0].message


def test_v105_guarded_put_clean():
    hits = lint("""
        def step(self, rwin, values, epoch):
            rwin.wait_open(epoch)
            rwin.put(values)

        def owner_side(self, values):
            self._win.epoch_open()
            self._win.put(values)
    """)
    assert hits == []


def test_v105_queue_put_not_a_window():
    hits = lint("""
        def pump(q, results, broker_q, item):
            q.put(item)
            results.put(item)
            broker_q.put(item)
    """)
    assert hits == []


def test_v105_allow_pragma():
    hits = lint("""
        def replay(rwin, values):
            rwin.put(values)  # verify: allow(V105)
    """)
    assert hits == []


# -- V106: per-pair allocation without a pool loan ---------------------------

def test_v106_alloc_in_pair_loop():
    hits = lint("""
        def pack_all(plan):
            for pp in plan.pairs:
                buf = np.empty(pp.element_count, np.float64)
                fill(buf, pp)
    """)
    assert [h.rule for h in hits] == ["V106"]
    assert "pool loan" in hits[0].message


def test_v106_fires_on_pair_named_iterable():
    hits = lint("""
        def stage(schedule):
            for src, dst in schedule.rank_pairs():
                out = np.zeros(count_for(src, dst))
    """)
    assert [h.rule for h in hits] == ["V106"]


def test_v106_pool_loan_in_body_is_clean():
    hits = lint("""
        def pack_all(plan, pool):
            for pp in plan.pairs:
                buf, release = pool.loan(pp.key, pp.element_count, pp.dtype)
                fill(buf, pp)
    """)
    assert hits == []


def test_v106_constant_size_alloc_is_clean():
    hits = lint("""
        def placeholders(plan):
            for pair in plan.pairs:
                sentinel = np.empty(0, np.float64)
    """)
    assert hits == []


def test_v106_nonpair_loop_is_clean():
    hits = lint("""
        def chunked(items):
            for item in items:
                buf = np.empty(item.size)
    """)
    assert hits == []


def test_v106_pragma_opts_out():
    hits = lint("""
        def pack_once(plan):
            for pp in plan.pairs:
                buf = np.empty(pp.element_count)  # verify: allow(V106)
    """)
    assert hits == []


# -- V107: per-invocation pickle in a loop -----------------------------------

def test_v107_pickle_dumps_in_loop():
    hits = lint("""
        import pickle
        def ship_all(comm, requests):
            for req in requests:
                comm.send(pickle.dumps(req), 0, 1)
    """)
    assert [h.rule for h in hits] == ["V107"]
    assert "frame" in hits[0].message


def test_v107_bare_dumps_in_while_loop():
    hits = lint("""
        from pickle import dumps
        def pump(comm, queue):
            while queue:
                comm.send(dumps(queue.pop()), 0, 1)
    """)
    assert [h.rule for h in hits] == ["V107"]


def test_v107_single_dumps_outside_loop_is_clean():
    hits = lint("""
        import pickle
        def ship_frame(comm, batch):
            comm.send(pickle.dumps(batch), 0, 1)
    """)
    assert hits == []


def test_v107_frame_codec_module_is_exempt():
    code = """
        import pickle
        def encode(entries):
            for e in entries:
                pickle.dumps(e)
    """
    assert lint(code, "src/repro/prmi/frames.py") == []
    assert [h.rule for h in lint(code, "src/repro/prmi/serving.py")] == \
        ["V107"]


def test_v107_pragma_opts_out():
    hits = lint("""
        import pickle
        def legacy(comm, reqs):
            for r in reqs:
                comm.send(pickle.dumps(r), 0, 1)  # verify: allow(V107)
    """)
    assert hits == []


# -- V108: raw shared-segment field access -----------------------------------

def test_v108_raw_flag_indexing_outside_accessor_layer():
    hits = lint("""
        def fast_release(pool, slot):
            pool._flags[slot] = 0
    """, "src/repro/simmpi/procs.py")
    assert [h.rule for h in hits] == ["V108"]
    assert "_flags" in hits[0].message


def test_v108_raw_done_read_outside_accessor_layer():
    hits = lint("""
        def peek(seg, w):
            return seg._done[w]
    """, "src/repro/schedule/executor.py")
    assert [h.rule for h in hits] == ["V108"]


def test_v108_accessor_modules_are_exempt():
    code = """
        def release(self, slot):
            self._flags[slot] = _FREE
    """
    assert lint(code, "src/repro/simmpi/shm.py") == []
    assert lint(code, "src/repro/simmpi/sanitize.py") == []


def test_v108_unrelated_subscripts_are_clean():
    hits = lint("""
        def ok(self, table, i):
            self.cache[i] = table[i]
            return self.rows[i]
    """)
    assert hits == []


def test_v108_pragma_opts_out():
    hits = lint("""
        def probe(pool, slot):
            return pool._flags[slot]  # verify: allow(V108)
    """, "src/repro/simmpi/procs.py")
    assert hits == []


# -- V109: flag transition without a paired accessor -------------------------

def test_v109_flag_store_outside_accessor_verbs():
    hits = lint("""
        def shortcut(flags, slot):
            flags[slot] = _BUSY
    """)
    assert [h.rule for h in hits] == ["V109"]
    assert "no paired release/acquire" in hits[0].message


def test_v109_state_constant_store_fires():
    hits = lint("""
        def finish(self, endpoint):
            self.table[endpoint] = STATE_FINISHED
    """)
    assert [h.rule for h in hits] == ["V109"]


def test_v109_accessor_verbs_are_exempt():
    hits = lint("""
        def release(self, slot):
            self.flags[slot] = _FREE
    """)
    assert hits == []


def test_v109_caller_of_accessor_is_exempt():
    hits = lint("""
        def teardown(self, slot):
            self.flags[slot] = _FREE
            self.pool.release(slot)
    """)
    assert hits == []


def test_v109_nonflag_store_is_clean():
    hits = lint("""
        def zero(self, slot):
            self.flags[slot] = 0
    """)
    assert hits == []


def test_v109_pragma_opts_out():
    hits = lint("""
        def init(self):
            self.flags[:] = _FREE  # verify: allow(V109)
    """)
    assert hits == []


# -- V110: knob read outside the config table --------------------------------

def test_v110_every_environment_spelling_fires():
    hits = lint("""
        import os
        from os import environ, getenv

        a = os.environ.get("REPRO_TIER", "two_sided")
        b = os.getenv("REPRO_ROUND_BYTES")
        c = os.environ["REPRO_BACKEND"]
        d = environ.get("REPRO_VERIFY")
        e = getenv("REPRO_TSAN", "0")
    """, "src/repro/schedule/costmodel.py")
    assert [h.rule for h in hits] == ["V110"] * 5
    assert "REPRO_TIER" in hits[0].message
    assert "config.resolve" in hits[0].message


def test_v110_config_module_and_other_variables_are_exempt():
    code = """
        import os

        raw = os.environ.get("REPRO_TIER", "")
    """
    assert lint(code, "src/repro/config.py") == []
    assert lint("""
        import os

        home = os.environ.get("HOME")
        knob = config.resolve("tier")
        label = names.get("REPRO_TIER")
    """) == []


def test_v110_pragma_opts_out():
    hits = lint("""
        import os

        raw = os.getenv("REPRO_BACKEND")  # verify: allow(V110)
    """)
    assert hits == []


# -- V111: private schedule build outside the cache ---------------------------

def test_v111_every_region_builder_fires_in_a_subsystem():
    hits = lint("""
        from repro.schedule import builder
        from repro.schedule.builder import build_region_schedule

        class Connection:
            def __init__(self, src, dst):
                self.schedule = build_region_schedule(src, dst)

        def per_call(src, dst):
            a = builder.build_structured_schedule(src, dst)
            return a, builder.build_sweep_schedule(src, dst)
    """, "src/repro/mxn/connection.py")
    assert [h.rule for h in hits] == ["V111"] * 3
    assert "build_region_schedule" in hits[0].message
    assert "GLOBAL_CACHE.get" in hits[0].message


def test_v111_builder_packages_and_the_cache_are_exempt():
    code = """
        def oracle_gate(src, dst):
            return build_region_schedule(src, dst, force_general=True)
    """
    for path in ("src/repro/schedule/delta.py", "src/repro/verify/__main__.py",
                 "src/repro/baselines/per_region.py"):
        assert lint(code, path) == []
    assert lint("""
        from repro.schedule.builder import GLOBAL_CACHE, build_region_schedule

        def fetch(src, dst):
            linear = build_linear_schedule(src, dst)   # not a region builder
            custom = ScheduleCache(build_region_schedule)   # passed, not called
            return GLOBAL_CACHE.get(src, dst)
    """, "src/repro/pubsub/endpoints.py") == []


def test_v111_pragma_opts_out():
    hits = lint("""
        sched = build_region_schedule(src, dst)  # verify: allow(V111)
    """, "src/repro/icomm/coupling.py")
    assert hits == []
