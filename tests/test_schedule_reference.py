"""``create_schedule`` against a dense reference on generated topologies.

``create_schedule`` reads only the non-zero allocation entries and the nodes
they load. The reference below is the dense greedy it replaced: it checks
every entry and every node's sum over all of its members, keeps a busy mask
per node and visits every element. Both must give the same slots, counts and
quotas, and reject the same bad allocations with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwdr import SlotSchedule, create_schedule, scenario_from_dict
from qwdr.simulate import FEASIBILITY_TOL
from conftest import tandem_model
from test_generated_topologies import scenarios


def dense_schedule(allocation, model, period):
    """The dense greedy's schedule, or its ValueError."""
    index = model.link_flow_index
    alloc = np.asarray(allocation, dtype=float)
    avals = alloc.tolist()
    for v in avals:
        if not v >= -FEASIBILITY_TOL:
            raise ValueError("allocation has negative or NaN entries")
    for cid, mlist in enumerate(index.members):
        total = 0.0
        for m in mlist:
            total += avals[m]
        if not total <= 1.0 + FEASIBILITY_TOL:
            raise ValueError(
                f"allocation infeasible: node {index.nodes[cid]} incident sum {total:.12f} > 1"
            )
    busy = [bytearray(period) for _ in index.nodes]
    active = [[] for _ in range(period)]
    counts = [0] * index.size
    quota = alloc * period
    for p, q in enumerate(quota.tolist()):
        if q <= 0.0:
            continue
        busy_i, busy_j = busy[index.elem_ca[p]], busy[index.elem_cb[p]]
        got = 0
        for t in range(period):
            if got >= q:
                break
            if busy_i[t] or busy_j[t]:
                continue
            busy_i[t] = busy_j[t] = 1
            active[t].append(p)
            got += 1
        counts[p] = got
    return SlotSchedule(active, np.array(counts, dtype=np.int64), quota)


# an entry: exact zero, negative zero, a tiny negative the tolerance admits,
# a tiny positive or an ordinary fraction
ENTRY = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-FEASIBILITY_TOL, 0.0),
    st.floats(1e-300, 1e-9),
    st.floats(0.0, 1.0),
)


def feasible(index, values):
    """``values`` scaled so that no node sum exceeds 1 (entries <= 0 kept)."""
    alloc = np.array(values, dtype=float)
    for mlist in index.members:
        total = float(np.clip(alloc[mlist], 0.0, None).sum())
        if total > 1.0:
            alloc[mlist] = np.where(alloc[mlist] > 0.0, alloc[mlist] / (total * (1 + 1e-12)), alloc[mlist])
    return alloc


def both(alloc, model, period):
    """The outcome of each side: its schedule fields or its error message."""
    outcomes = []
    for fn in (dense_schedule, create_schedule):
        try:
            out = fn(alloc, model, period)
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
        else:
            assert out.counts.dtype == np.int64 and out.counts.shape == (model.link_flow_index.size,)
            outcomes.append(("ok", out.active, out.counts.tolist(), out.quota.tobytes()))
    return outcomes


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.data(), st.integers(1, 8))
def test_feasible_allocations_match_dense_greedy(doc, data, period):
    model = scenario_from_dict(doc).build_model()
    index = model.link_flow_index
    values = data.draw(st.lists(ENTRY, min_size=index.size, max_size=index.size))
    alloc = feasible(index, values)
    dense, sparse = both(alloc, model, period)
    assert dense[0] == "ok"
    assert sparse == dense


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.data(), st.integers(1, 8))
def test_bad_allocations_rejected_alike(doc, data, period):
    model = scenario_from_dict(doc).build_model()
    index = model.link_flow_index
    values = data.draw(st.lists(ENTRY, min_size=index.size, max_size=index.size))
    alloc = feasible(index, values)
    # spoil one or two entries: overfill a node, or put in a bad value
    for _ in range(data.draw(st.integers(1, 2))):
        p = data.draw(st.integers(0, index.size - 1))
        alloc[p] = data.draw(
            st.sampled_from([1.2, 0.6, 1.0 + 2 * FEASIBILITY_TOL, -1e-8, -1.0, math.nan, math.inf, -math.inf])
        )
    dense, sparse = both(alloc, model, period)
    assert sparse == dense


@pytest.mark.parametrize(
    "alloc, message",
    [
        ([0.8, 0.7], "allocation infeasible: node 2 incident sum 1.500000000000 > 1"),
        ([-0.2, 0.1], "allocation has negative or NaN entries"),
        ([math.nan, 0.1], "allocation has negative or NaN entries"),
        ([0.0, math.nan], "allocation has negative or NaN entries"),
        ([math.inf, 0.0], "allocation infeasible: node 1 incident sum inf > 1"),
        ([1.2, -0.3], "allocation has negative or NaN entries"),
    ],
)
def test_tandem_messages(alloc, message):
    model = tandem_model()
    for fn in (dense_schedule, create_schedule):
        with pytest.raises(ValueError) as exc:
            fn(np.array(alloc), model, 5)
        assert str(exc.value) == message
