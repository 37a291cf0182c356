"""Particle migration and M×N exchange tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.particles import (
    ParticleField,
    SpatialDecomposition,
    exchange_mxn,
    migrate,
)
from repro.simmpi import NameService, run_coupled, run_spmd


def make_particles(rank, n, ndim, seed=0):
    """n particles with globally unique ids and random positions."""
    rng = np.random.default_rng(seed + rank)
    return ParticleField(
        ids=np.arange(rank * n, rank * n + n),
        positions=rng.random((n, ndim)),
        attributes={"mass": rng.random(n) + 1.0})


class TestMigrate:
    def test_ownership_restored(self):
        decomp = SpatialDecomposition.block(
            [0.0, 0.0], [1.0, 1.0], cells=(4, 4), grid=(2, 2))

        def main(comm):
            field = make_particles(comm.rank, 20, 2)
            owned = migrate(comm, field, decomp)
            owners = decomp.owner_of(owned.positions)
            assert np.all(owners == comm.rank)
            return owned

        results = run_spmd(4, main)
        total = sum(f.count for f in results)
        assert total == 80
        all_ids = np.concatenate([f.ids for f in results])
        assert len(np.unique(all_ids)) == 80

    def test_attributes_travel_with_particles(self):
        decomp = SpatialDecomposition.block(
            [0.0], [1.0], cells=(8,), grid=(4,))

        def main(comm):
            field = make_particles(comm.rank, 10, 1, seed=7)
            before = {int(i): float(m) for i, m in
                      zip(field.ids, field.attributes["mass"])}
            owned = migrate(comm, field, decomp)
            after = {int(i): float(m) for i, m in
                     zip(owned.ids, owned.attributes["mass"])}
            return before, after

        results = run_spmd(4, main)
        sent = {}
        received = {}
        for before, after in results:
            sent.update(before)
            received.update(after)
        assert sent == received  # every particle's mass intact

    def test_repeated_migration_after_movement(self):
        decomp = SpatialDecomposition.block(
            [0.0, 0.0], [1.0, 1.0], cells=(4, 4), grid=(2, 2))

        def main(comm):
            rng = np.random.default_rng(comm.rank)
            field = make_particles(comm.rank, 15, 2, seed=3)
            field = migrate(comm, field, decomp)
            for _ in range(3):
                field.positions += rng.normal(0, 0.2, size=(field.count, 2))
                field.positions[:] = np.clip(field.positions, 0.0, 1.0)
                field = migrate(comm, field, decomp)
                assert np.all(
                    decomp.owner_of(field.positions) == comm.rank)
            return field.count

        assert sum(run_spmd(4, main)) == 60

    def test_empty_ranks_ok(self):
        decomp = SpatialDecomposition.block(
            [0.0], [1.0], cells=(4,), grid=(4,))

        def main(comm):
            if comm.rank == 0:
                # all particles clustered in rank 3's territory
                field = ParticleField(
                    ids=[0, 1], positions=np.array([[0.95], [0.99]]),
                    attributes={"mass": [1.0, 2.0]})
            else:
                field = ParticleField.empty(1, {"mass": ()})
            owned = migrate(comm, field, decomp)
            return owned.count

        assert run_spmd(4, main) == [0, 0, 0, 2]

    def test_size_mismatch_rejected(self):
        decomp = SpatialDecomposition.block(
            [0.0], [1.0], cells=(4,), grid=(2,))

        def main(comm):
            from repro.errors import DistributionError
            with pytest.raises(DistributionError):
                migrate(comm, ParticleField.empty(1), decomp)
            return True

        assert all(run_spmd(3, main))


class TestExchangeMxN:
    def test_m3_to_n2(self):
        dst_decomp = SpatialDecomposition.block(
            [0.0, 0.0], [1.0, 1.0], cells=(4, 4), grid=(2, 1))
        ns = NameService()

        def producer(comm):
            inter = ns.accept("px", comm)
            field = make_particles(comm.rank, 12, 2, seed=5)
            exchange_mxn(inter, "src", field, dst_decomp)
            return field.count

        def consumer(comm):
            inter = ns.connect("px", comm)
            owned = exchange_mxn(inter, "dst", decomp=dst_decomp,
                                 ndim=2, attribute_shapes={"mass": ()})
            assert np.all(
                dst_decomp.owner_of(owned.positions) == comm.rank)
            return owned

        out = run_coupled([
            ("producer", 3, producer, ()),
            ("consumer", 2, consumer, ()),
        ])
        assert sum(out["producer"]) == 36
        received = sum(f.count for f in out["consumer"])
        assert received == 36
        ids = np.concatenate([f.ids for f in out["consumer"]])
        assert len(np.unique(ids)) == 36

    def test_bad_side(self):
        ns = NameService()

        def a(comm):
            inter = ns.accept("bx", comm)
            with pytest.raises(ValueError):
                exchange_mxn(inter, "upward")
            return True

        def b(comm):
            ns.connect("bx", comm)
            return True

        out = run_coupled([("a", 1, a, ()), ("b", 1, b, ())])
        assert all(out["a"])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30))
def test_migration_conserves_everything(seed, n_per_rank):
    """Property: migration preserves particle count, ids and attribute
    values for random particle sets."""
    decomp = SpatialDecomposition.block(
        [0.0, 0.0], [1.0, 1.0], cells=(6, 6), grid=(2, 2))

    def main(comm):
        field = make_particles(comm.rank, n_per_rank, 2, seed=seed)
        checksum = float(field.attributes["mass"].sum())
        owned = migrate(comm, field, decomp)
        assert np.all(decomp.owner_of(owned.positions) == comm.rank)
        return checksum, float(owned.attributes["mass"].sum()), owned.count

    results = run_spmd(4, main)
    sent = sum(r[0] for r in results)
    received = sum(r[1] for r in results)
    count = sum(r[2] for r in results)
    assert count == 4 * n_per_rank
    assert received == pytest.approx(sent)
