"""Rows held as parallel columns, declared once per class.

A served batch travels as column classes: request rows, answer rows,
distribution blocks and sketch rows.  Each declares its columns once,
in four kinds, and :class:`Columns` writes the rest once for all of
them: the checked constructor, ``len``, :meth:`Columns.take` and the
join behind :meth:`Columns.concat` (see ``docs/serving.md``, *Column
classes*).

* ``_ROWS`` — per-row arrays and their dtypes (``None``: kept as
  given, e.g. a 2-D grid).  The first one sets the row count.
* ``_SIDECARS`` — optional per-row columns and the value every row
  holds when the column is ``None`` (the common case costs nothing).
  A sidecar is an array, a list or tuple, or another
  :class:`Columns`.
* ``_TABLES`` — integer code columns (also in ``_ROWS``) and the slot
  of the interned string table each indexes.
* ``_SHARED`` — every other slot: one value for all rows, with its
  default (:data:`REQUIRED`: none).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["Columns", "REQUIRED", "intern"]

#: ``_SHARED`` default of a slot the constructor must be given.
REQUIRED = object()


def intern(values) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode a sequence of strings as ``(codes, table)``, the table in
    order of first appearance."""
    table: list[str] = []
    index: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int32)
    for i, v in enumerate(values):
        code = index.get(v)
        if code is None:
            code = index[v] = len(table)
            table.append(v)
        codes[i] = code
    return codes, tuple(table)


class Columns:
    """Rows as parallel columns; subclasses declare the schema.

    Construction takes every column by keyword, casts the row columns to
    their dtypes and raises :class:`ValueError` on a column or sidecar
    whose length is not the row count.  A row column left out is an
    error, or zeros (and its table ``("",)``) where the class sets
    ``_ZERO_FILL``.
    """

    __slots__ = ()
    _ROWS: dict = {}
    _SIDECARS: dict = {}
    _TABLES: dict = {}
    _SHARED: dict = {}
    _ZERO_FILL = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._LEN = next(iter(cls._ROWS))
        # What a row subset carries over unchanged.
        cls._KEEP = (*cls._TABLES.values(), *cls._SHARED)

    def __init__(self, **columns):
        n = None
        for name, dtype in self._ROWS.items():
            value = columns.pop(name, None)
            if value is None:
                if n is None or not self._ZERO_FILL:
                    raise TypeError(f"{type(self).__name__} needs column {name!r}")
                value = np.zeros(n, dtype)
            value = np.asarray(value, dtype)
            if n is None:
                n = len(value)
            elif value.shape[:1] != (n,):
                raise ValueError(f"column {name!r} has shape {value.shape}, expected ({n}, ...)")
            setattr(self, name, value)
        for name in self._TABLES.values():
            table = columns.pop(name, None)
            if table is None:
                if not self._ZERO_FILL:
                    raise TypeError(f"{type(self).__name__} needs table {name!r}")
                table = ("",)
            setattr(self, name, tuple(table))
        for name in self._SIDECARS:
            side = columns.pop(name, None)
            if side is not None and len(side) != n:
                raise ValueError(f"sidecar {name!r} has {len(side)} entries, expected {n}")
            setattr(self, name, side)
        for name, default in self._SHARED.items():
            value = columns.pop(name, default)
            if value is REQUIRED:
                raise TypeError(f"{type(self).__name__} needs {name!r}")
            setattr(self, name, value)
        if columns:
            raise TypeError(f"{type(self).__name__} has no column {sorted(columns)[0]!r}")

    def __len__(self) -> int:
        return len(getattr(self, self._LEN))

    @classmethod
    def empty(cls):
        """No rows."""
        rows = {name: np.empty(0, dtype) for name, dtype in cls._ROWS.items()}
        return cls(**rows, **dict.fromkeys(cls._TABLES.values(), ()))

    def _with(self, **columns):
        """A shallow copy with ``columns`` swapped in, unchecked."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, columns[name] if name in columns else getattr(self, name))
        return out

    def take(self, index):
        """Rows ``index`` as a batch of their own: a boolean mask, an
        index array (repeats allowed) or a slice.  Row ``i`` of the
        result reads as row ``index[i]`` of this one; tables and shared
        slots are shared, not copied."""
        if not isinstance(index, slice):
            index = np.asarray(index)
            if index.dtype == bool:
                index = np.flatnonzero(index)
            elif not index.size:
                index = index.astype(np.intp)
        out = object.__new__(type(self))
        for name in self._ROWS:
            setattr(out, name, getattr(self, name)[index])
        picks = None
        for name in self._SIDECARS:
            side = getattr(self, name)
            if isinstance(side, Columns):
                side = side.take(index)
            elif side is not None:
                if isinstance(index, slice) or isinstance(side, np.ndarray):
                    side = side[index]
                else:
                    if picks is None:
                        picks = index.tolist()
                    side = type(side)(map(side.__getitem__, picks))
            setattr(out, name, side)
        for name in self._KEEP:
            setattr(out, name, getattr(self, name))
        return out

    @classmethod
    def concat(cls, parts):
        """The rows of ``parts`` in order, as one batch.

        Shared slots must agree.  Code columns keep their codes where
        every part carries an equal table, and are re-interned into one
        table where the tables differ; a sidecar absent from some parts
        is filled with its fill value there.  No non-empty part: the
        first part, or :meth:`empty` when there is none.
        """
        parts = list(parts)
        live = [p for p in parts if len(p)]
        if len(live) == 1:
            return live[0]
        if not live:
            return parts[0] if parts else cls.empty()
        out = object.__new__(cls)
        for name in cls._SHARED:
            value = getattr(live[0], name)
            if any(getattr(p, name) != value for p in live[1:]):
                raise ValueError(f"cannot join rows with different {name!r}")
            setattr(out, name, value)
        for name in cls._ROWS:
            if name not in cls._TABLES:
                setattr(out, name, np.concatenate([getattr(p, name) for p in live]))
        for code, name in cls._TABLES.items():
            tables = [getattr(p, name) for p in live]
            codes = [getattr(p, code) for p in live]
            table = tables[0]
            if any(t != table for t in tables[1:]):
                remap, table = intern(list(chain.from_iterable(tables)))
                bounds = np.cumsum([len(t) for t in tables[:-1]])
                codes = [r[c] for r, c in zip(np.split(remap, bounds), codes)]
            setattr(out, name, table)
            setattr(out, code, np.concatenate(codes).astype(cls._ROWS[code], copy=False))
        for name, fill in cls._SIDECARS.items():
            setattr(out, name, _join_sidecar([getattr(p, name) for p in live], live, fill))
        return out


def _join_sidecar(sides, parts, fill):
    """One sidecar over ``parts``, ``fill`` standing in for the rows of
    parts that lack it (``None`` when every part does)."""
    if all(s is None for s in sides):
        return None
    if all(s is None or isinstance(s, np.ndarray) for s in sides):
        return np.concatenate(
            [np.full(len(p), fill) if s is None else s for s, p in zip(sides, parts)]
        )
    if len({type(s) for s in sides}) == 1 and isinstance(sides[0], Columns):
        return type(sides[0]).concat(sides)
    return tuple(
        chain.from_iterable((fill,) * len(p) if s is None else s for s, p in zip(sides, parts))
    )
