"""Time-parametrized path descriptors restricted to declared analytic forms.

Only constant, linear (a + b*t) and continuous piecewise-linear paths are
supported, so every moving family built from them carries a certified
one-sided continuity rate, read from the rate of each analytic piece
(rates).  Every value of a path has the shape of its value at 0.

Each path class also owns its schema document: a form tag in PATHS plus
to_dict/from_dict, so a new path form is one class plus one entry there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Schema, finite, norm, readonly


class Path(Schema):
    """Scalar- or vector-valued map of time; immutable descriptor.  A vector
    value or rate is a read-only float array."""

    form: str  # the "form" value of the schema document

    def __call__(self, t):
        """The value at t, or at each time of t, a 1-D array, stacked along the
        first axis by the same float operations as the scalar call."""
        raise NotImplementedError

    def rates(self) -> tuple:
        """The rate of each analytic piece in time order: a number for a
        scalar path, a read-only vector for a vector one, 0.0 for a constant."""
        raise NotImplementedError

    def max_speed(self) -> float:
        return max(abs(r) if isinstance(r, float) else norm(r) for r in self.rates())

    def knots(self) -> tuple:
        """Times where the path may change its rate; () for one analytic piece."""
        return ()

    def to_dict(self) -> dict:
        """Schema document, read back by PATHS[self.form].from_dict."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, fields) -> "Path":
        """Build from a schema reader (scenarios._Fields) whose num, num_or_vec,
        objects and path methods return validated fields by name."""
        raise NotImplementedError


def _value(v):
    return finite(v) if np.isscalar(v) else readonly(v)


def _plain(v):
    """A path value as JSON: a list for a vector, the float itself otherwise."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def piece_index(pieces: tuple, t):
    """Index into ((until, item), ...) of the piece that applies at t, a time
    or an array of times: piece i covers [until_{i-1}, until_i), and the last
    piece also its right endpoint (and NaN)."""
    return np.searchsorted([u for u, _ in pieces[:-1]], t, side="right")


@dataclass(frozen=True, eq=False)
class ConstantPath(Path):
    form = "constant"
    value: object

    def __post_init__(self):
        object.__setattr__(self, "value", _value(self.value))

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self.value
        return np.broadcast_to(self.value, np.shape(t) + np.shape(self.value))

    def rates(self):
        return (0.0,)

    def to_dict(self):
        return {"form": self.form, "value": _plain(self.value)}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.num_or_vec("value"))


@dataclass(frozen=True, eq=False)
class LinearPath(Path):
    """t -> value + rate * t."""

    form = "linear"
    value: object
    rate: object

    def __post_init__(self):
        v, r = _value(self.value), _value(self.rate)
        if np.shape(v) != np.shape(r):  # a number has shape (), a vector (d,)
            raise ValueError("value and rate differ in shape")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "rate", r)

    def __call__(self, t):
        values = np.multiply.outer(t, self.rate)
        values += self.value  # in place: one array per call, as a + b == b + a
        return values

    def rates(self):
        return (self.rate,)

    def to_dict(self):
        return {"form": self.form, "value": _plain(self.value), "rate": _plain(self.rate)}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.num_or_vec("value"), fields.num_or_vec("rate"))


@dataclass(frozen=True, eq=False)
class PiecewisePath(Path):
    """Continuous concatenation of paths; pieces listed as (until, path).

    Piece i applies on [until_{i-1}, until_i); the last piece also covers its
    right endpoint.  Junction continuity is validated to 1e-9.
    """

    form = "piecewise"
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) < 1:
            raise ValueError("piecewise path needs at least one piece")
        pieces = tuple((finite(u), p) for u, p in self.pieces)
        for i in range(1, len(pieces)):
            if pieces[i][0] <= pieces[i - 1][0]:
                raise ValueError("piece breakpoints must be strictly increasing")
            t_star = pieces[i - 1][0]
            left, right = pieces[i - 1][1](t_star), pieces[i][1](t_star)
            if np.shape(left) != np.shape(right):
                raise ValueError(f"piece values differ in shape at t={t_star}")
            if (gap := norm(np.atleast_1d(left - right))) > 1e-9:
                raise ValueError(f"path discontinuity {gap:.3e} at t={t_star}")
        object.__setattr__(self, "pieces", pieces)

    def __call__(self, t):
        which = piece_index(self.pieces, t)
        if np.ndim(t) == 0:
            return self.pieces[which][1](t)
        parts = [np.flatnonzero(which == i) for i in range(len(self.pieces))]
        values = np.concatenate([p(t[idx]) for idx, (_, p) in zip(parts, self.pieces)])
        out = np.empty_like(values)
        out[np.concatenate(parts)] = values
        return out

    def rates(self):
        return tuple(rate for _, p in self.pieces for rate in p.rates())

    def knots(self):
        inner = (k for _, p in self.pieces for k in p.knots())
        return tuple(sorted({u for u, _ in self.pieces}.union(inner)))

    def to_dict(self):
        pieces = [{"until": u, "path": p.to_dict()} for u, p in self.pieces]
        return {"form": self.form, "pieces": pieces}

    @classmethod
    def from_dict(cls, fields):
        return cls(tuple((p.num("until"), p.path("path")) for p in fields.objects("pieces")))


# Schema form -> path class: a new path form is one class plus one entry here.
PATHS = {cls.form: cls for cls in (ConstantPath, LinearPath, PiecewisePath)}
