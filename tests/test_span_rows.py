"""Span row blocks read back exactly as the same spans started one at a time.

A generated script of operations — open a block, set columns on some of
its rows, finish some rows, update rows of several blocks by span id,
start an individual span — is applied twice: once through
:meth:`Tracer.start_rows` blocks (and :meth:`Tracer.update_rows`) and
once through per-row :meth:`Tracer.start_span` / :meth:`Span.set` /
:meth:`Span.finish`.
Both tracers must export the same spans: ids, traces, parents, times,
attribute values *and* attribute order (compared as unsorted JSON), and
the same counts, stage tallies and ``find`` results.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, trace_to_chrome, trace_to_dict

KEYS = ("a", "b", "c", "outcome")
NAMES = ("request", "serving.reject", "mc.converged")
STAGES = ("serving", "structural")

scalars = st.one_of(
    st.integers(-5, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(["ok", "shed:deadline", "drained"]),
    st.booleans(),
    st.none(),
)


@st.composite
def column(draw, n):
    """One column for ``n`` rows: a shared scalar, a list, or an array."""
    kind = draw(st.sampled_from(["scalar", "list", "int_array", "float_array"]))
    if kind == "scalar":
        return draw(scalars)
    if kind == "list":
        return draw(st.lists(scalars, min_size=n, max_size=n))
    if kind == "int_array":
        values = draw(st.lists(st.integers(-5, 10**6), min_size=n, max_size=n))
        return np.array(values, dtype=np.int64)
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))
    return np.array(values, dtype=float)


@st.composite
def columns(draw, n):
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=3))
    return {k: draw(column(n)) for k in keys}


@st.composite
def subset(draw, n):
    """Row positions (sorted), a mask or a slice over ``n`` rows."""
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["positions", "mask", "all"]))
    if kind == "all":
        return slice(None), n
    mask = np.array(picks, dtype=bool)
    if kind == "mask":
        return mask, int(mask.sum())
    return np.flatnonzero(mask), int(mask.sum())


@st.composite
def script(draw):
    """A list of operations; ``set``/``finish`` name an earlier block."""
    ops, blocks = [], []
    for _ in range(draw(st.integers(1, 8))):
        kinds = ["open", "span", "record", "set", "finish", "update"]
        what = draw(st.sampled_from(kinds if blocks else kinds[:3]))
        if what in ("open", "record"):
            n = draw(st.integers(1, 6 if what == "open" else 3))
            name = draw(
                st.one_of(
                    st.sampled_from(NAMES), st.lists(st.sampled_from(NAMES), min_size=n, max_size=n)
                )
            )
            t = draw(
                st.one_of(
                    st.none(),
                    st.floats(0, 100, allow_nan=False),
                    st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n),
                )
            )
            if t is None or not isinstance(t, list):
                # start_rows infers the row count from a per-row value.
                extra = {"rid": np.arange(n)}
            else:
                extra = {}
            op = dict(n=n, name=name, t=t, stage=draw(st.sampled_from(STAGES)))
            op["columns"] = {**extra, **draw(columns(n))}
            if what == "open":
                op.update(new_trace=draw(st.booleans()), under_parent=draw(st.booleans()))
                blocks.append(n)
            ops.append((what, op))
        elif what == "span":
            t = draw(st.floats(0, 100, allow_nan=False))
            ops.append(("span", dict(t=t, instant=draw(st.booleans()))))
        elif what == "set":
            b = draw(st.integers(0, len(blocks) - 1))
            idx, k = draw(subset(blocks[b]))
            ops.append(("set", dict(block=b, idx=idx, columns=draw(columns(k)))))
        elif what == "update":
            # Distinct rows of any blocks, in any order.
            rows = [(b, j) for b, n in enumerate(blocks) for j in range(n)]
            targets = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=8, unique=True))
            k = len(targets)
            t = draw(
                st.one_of(
                    st.none(),
                    st.floats(0, 200, allow_nan=False),
                    st.lists(st.floats(0, 200, allow_nan=False), min_size=k, max_size=k),
                )
            )
            ops.append(("update", dict(targets=targets, t=t, columns=draw(columns(k)))))
        else:
            b = draw(st.integers(0, len(blocks) - 1))
            idx, k = draw(subset(blocks[b]))
            t = draw(
                st.one_of(
                    st.none(),
                    st.floats(0, 200, allow_nan=False),
                    st.lists(st.floats(0, 200, allow_nan=False), min_size=k, max_size=k),
                )
            )
            ops.append(("finish", dict(block=b, idx=idx, t=t)))
    return ops


def _row(value, j):
    """Row ``j``'s value of a column as a one-span call would pass it."""
    if isinstance(value, np.ndarray):
        return value[j].item()
    if isinstance(value, list):
        return value[j]
    return value


def _positions(idx, n):
    return np.arange(n)[idx].tolist()


def run_blocks(ops):
    tr = Tracer()
    parent = tr.start_span("parent", 1.0, stage="serving")
    blocks = []
    for what, op in ops:
        if what == "open":
            blocks.append(
                tr.start_rows(
                    op["name"],
                    op["t"],
                    stage=op["stage"],
                    parent=parent if op["under_parent"] else None,
                    new_trace=op["new_trace"],
                    **op["columns"],
                )
            )
        elif what == "span" and op["instant"]:
            tr.instant("single", op["t"], stage="nws")
        elif what == "span":
            tr.start_span("single", op["t"], stage="nws").finish()
        elif what == "record":
            tr.record_rows(op["name"], op["t"], stage=op["stage"], **op["columns"])
        elif what == "set":
            blocks[op["block"]].set(op["idx"], **op["columns"])
        elif what == "update":
            ids = [blocks[b].first_id + j for b, j in op["targets"]]
            tr.update_rows(ids, op["t"], **op["columns"])
        else:
            blocks[op["block"]].finish(op["idx"], op["t"])
    return tr


def run_spans(ops):
    tr = Tracer()
    parent = tr.start_span("parent", 1.0, stage="serving")
    blocks = []
    for what, op in ops:
        if what == "open":
            n, name, t = op["n"], op["name"], op["t"]
            blocks.append(
                [
                    tr.start_span(
                        _row(name, j),
                        _row(t, j),
                        stage=op["stage"],
                        parent=parent if op["under_parent"] else None,
                        new_trace=op["new_trace"],
                        **{k: _row(v, j) for k, v in op["columns"].items()},
                    )
                    for j in range(n)
                ]
            )
        elif what == "span":
            tr.start_span("single", op["t"], stage="nws").finish()
        elif what == "record":
            for j in range(op["n"]):
                tr.start_span(
                    _row(op["name"], j),
                    _row(op["t"], j),
                    stage=op["stage"],
                    **{k: _row(v, j) for k, v in op["columns"].items()},
                ).finish()
        elif what == "set":
            spans = blocks[op["block"]]
            for j, i in enumerate(_positions(op["idx"], len(spans))):
                spans[i].set(**{k: _row(v, j) for k, v in op["columns"].items()})
        elif what == "update":
            for j, (b, i) in enumerate(op["targets"]):
                blocks[b][i].set(**{k: _row(v, j) for k, v in op["columns"].items()})
                if op["t"] is not None:
                    blocks[b][i].finish(_row(op["t"], j))
        else:
            spans = blocks[op["block"]]
            for j, i in enumerate(_positions(op["idx"], len(spans))):
                spans[i].finish(_row(op["t"], j))
    return tr


@settings(max_examples=300, deadline=None)
@given(script())
def test_row_blocks_export_like_one_span_at_a_time(ops):
    rows, spans = run_blocks(ops), run_spans(ops)
    assert json.dumps([sp.to_dict() for sp in rows.spans]) == json.dumps(
        [sp.to_dict() for sp in spans.spans]
    )
    assert json.dumps(trace_to_dict(rows)) == json.dumps(trace_to_dict(spans))
    assert json.dumps(trace_to_chrome(rows)) == json.dumps(trace_to_chrome(spans))
    assert len(rows) == len(spans)
    assert rows.stage_counts() == spans.stage_counts()
    assert [sp.span_id for sp in rows.find(name="request")] == [
        sp.span_id for sp in spans.find(name="request")
    ]


def test_spans_are_rebuilt_after_a_block_changes():
    tr = Tracer()
    rows = tr.start_rows("request", [1.0, 2.0], stage="serving", new_trace=True)
    assert [sp.end for sp in tr.spans] == [None, None]
    rows.set([1], outcome="ok").finish([1], 5.0)
    (first, second) = tr.spans
    assert first.end is None and first.attrs == {}
    assert second.end == 5.0 and second.attrs == {"outcome": "ok"}
    assert [sp.trace_id for sp in tr.spans] == [1, 2]


def test_a_per_row_column_must_match_the_rows():
    tr = Tracer()
    rows = tr.start_rows("request", [1.0, 2.0], stage="serving")
    try:
        rows.set([0, 1], outcome=["ok"])
    except ValueError as exc:
        assert "1 values for 2 rows" in str(exc)
    else:
        raise AssertionError("a short column was accepted")


def test_row_updates_apply_before_a_block_is_read():
    tr = Tracer()
    first = tr.start_rows("request", [1.0, 2.0], stage="serving", new_trace=True)
    tr.start_span("single", 1.5, stage="nws").finish()
    second = tr.start_rows("request", [3.0], stage="serving", new_trace=True)
    ids = [second.first_id, first.first_id + 1]
    tr.update_rows(ids, [7.0, 8.0], batch_span=9, outcome=["ok", "shed:deadline"])
    # A block an update names is brought up to date before it is read.
    assert second.open_rows().tolist() == [] and first.open_rows().tolist() == [0]
    first.set([1], latency=0.5)
    assert [sp.attrs for sp in tr.find(name="request")] == [
        {},
        {"batch_span": 9, "outcome": "shed:deadline", "latency": 0.5},
        {"batch_span": 9, "outcome": "ok"},
    ]
    # An id past every block is refused at the call, and nothing is logged.
    with pytest.raises(IndexError, match="not all rows"):
        tr.update_rows([second.first_id + 1], outcome="ok")
    with pytest.raises(IndexError, match="not all rows"):
        tr.update_rows([first.first_id - 1, first.first_id], outcome="ok")
    assert len(tr.spans) == 4


def test_recorded_rows_are_not_rows_an_update_can_name():
    tr = Tracer()
    block = tr.start_rows("request", [1.0], stage="serving")
    tr.record_rows("mc.converged", stage="structural", request_id=[7])
    tr.record_rows("mc.converged", stage="structural", request_id=[8, 9])
    with pytest.raises(ValueError, match="2 values for 1 row"):
        tr.record_rows("mc.converged", [1.0], stage="structural", request_id=[8, 9])
    # The lone row is an instant span, not a block row: an update naming
    # it raises when applied.
    tr.update_rows([block.first_id + 1], outcome="ok")
    with pytest.raises(IndexError, match=f"span {block.first_id + 1} is not a row"):
        tr.spans


def test_a_row_update_naming_a_plain_span_raises_and_keeps_the_later_updates():
    tr = Tracer()
    first = tr.start_rows("request", [1.0, 2.0], stage="serving", new_trace=True)
    single = tr.start_span("single", 1.5, stage="nws").finish()
    second = tr.start_rows("request", [3.0], stage="serving", new_trace=True)
    tr.update_rows([first.first_id], 5.0)
    tr.update_rows([single.span_id], outcome="ok")  # between blocks: not a row
    tr.update_rows([second.first_id], 6.0)
    with pytest.raises(IndexError, match=f"span {single.span_id} is not a row"):
        tr.spans
    # The update before the bad one was applied; it and the one after stay logged.
    assert first.end.tolist()[0] == 5.0 and np.isnan(second.end).all()
    with pytest.raises(IndexError, match=f"span {single.span_id} is not a row"):
        second.open_rows()


def test_null_tracer_rows_are_inert():
    from repro.obs import NULL_TRACER

    rows = NULL_TRACER.start_rows("request", [1.0], stage="serving", request_id=[3])
    assert rows.set([0], outcome="ok").finish([0], 2.0) is rows
    assert len(rows) == 0 and NULL_TRACER.spans == ()
