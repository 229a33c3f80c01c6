"""Span row blocks read back exactly as the same spans started one at a time.

A generated script of operations — open a block, set columns on some of
its rows, finish some rows, start an individual span — is applied twice:
once through :meth:`Tracer.start_rows` blocks and once through per-row
:meth:`Tracer.start_span` / :meth:`Span.set` / :meth:`Span.finish`.
Both tracers must export the same spans: ids, traces, parents, times,
attribute values *and* attribute order (compared as unsorted JSON), and
the same counts, stage tallies and ``find`` results.
"""

import json

import numpy as np
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
        kinds = ["open", "span", "set", "finish"] if blocks else ["open", "span"]
        what = draw(st.sampled_from(kinds))
        if what == "open":
            n = draw(st.integers(1, 6))
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
            ops.append(
                (
                    "open",
                    dict(
                        n=n,
                        name=name,
                        t=t,
                        stage=draw(st.sampled_from(STAGES)),
                        new_trace=draw(st.booleans()),
                        under_parent=draw(st.booleans()),
                        columns={**extra, **draw(columns(n))},
                    ),
                )
            )
            blocks.append(n)
        elif what == "span":
            ops.append(("span", dict(t=draw(st.floats(0, 100, allow_nan=False)))))
        elif what == "set":
            b = draw(st.integers(0, len(blocks) - 1))
            idx, k = draw(subset(blocks[b]))
            ops.append(("set", dict(block=b, idx=idx, columns=draw(columns(k)))))
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
        elif what == "span":
            tr.start_span("single", op["t"], stage="nws").finish()
        elif what == "set":
            blocks[op["block"]].set(op["idx"], **op["columns"])
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
        elif what == "set":
            spans = blocks[op["block"]]
            for j, i in enumerate(_positions(op["idx"], len(spans))):
                spans[i].set(**{k: _row(v, j) for k, v in op["columns"].items()})
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


def test_null_tracer_rows_are_inert():
    from repro.obs import NULL_TRACER

    rows = NULL_TRACER.start_rows("request", [1.0], stage="serving", request_id=[3])
    assert rows.set([0], outcome="ok").finish([0], 2.0) is rows
    assert len(rows) == 0 and NULL_TRACER.spans == ()
