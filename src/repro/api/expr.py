"""Declarative predicate-expression algebra over named schema attributes.

This is the *logical* half of the API redesign: clients state which
counting queries they want in terms of the schema — never which row of
which Kronecker product.  Expressions compose::

    from repro.api import A, marginal, prefix, total

    e1 = A("age").between(30, 40) & A("sex").eq("F")   # one counting query
    e2 = marginal("age", "income")                      # a group-by
    e3 = prefix("income")                               # all CDF queries
    e4 = total()                                        # the grand total
    w  = e2 + 0.25 * e3                                 # weighted union

Every expression compiles against a :class:`~repro.api.schema.Schema` to
an implicit workload matrix — per-attribute indicator sets combined by
Kronecker product (paper Theorem 2) and stacked into weighted unions
(Definition 3) — using exactly the structured matrices the physical
builders produce (``Identity``/``Ones``/``Prefix``/``AllRange``), so a
compiled expression is bit-for-bit the workload a caller would have
hand-built.

Negation is supported on single-attribute conditions (``~A("race").eq``)
via the :class:`~repro.workload.predicates.Not` predicate; conjunction
(``&``) combines conditions across attributes — and within one attribute
by predicate conjunction.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..domain import SchemaMismatchError
from ..linalg import AllRange, Identity, Kronecker, Matrix, Ones, Prefix, VStack, Weighted
from ..workload.predicates import (
    And,
    Equals,
    InSet,
    Not,
    Predicate,
    Range,
    TruePredicate,
    bucket_predicates,
    vectorize_set,
)
from .schema import Schema

__all__ = [
    "A",
    "AttributeRef",
    "Buckets",
    "Condition",
    "Conjunction",
    "QueryExpr",
    "buckets",
    "count",
    "marginal",
    "prefix",
    "ranges",
    "total",
    "union",
]


class QueryExpr:
    """A declarative set of counting queries over named attributes.

    Subclasses implement ``_terms(schema)`` returning the union-of-products
    decomposition ``[(weight, {attr: factor matrix})]``; attributes absent
    from a term implicitly carry the Total factor (neither filtered nor
    grouped).  ``compile`` assembles the implicit workload matrix.

    Algebra: ``e1 + e2`` is the union (rows stacked), ``w * e`` scales a
    term's accuracy weight (Section 3.3 weighted workloads).
    """

    #: ``(schema, compiled query)`` of the last compile against a dataset
    #: (:meth:`repro.api.session.Dataset.compile`): the compiled form
    #: lives exactly as long as the expression does.
    _compiled = None

    def _terms(self, schema: Schema) -> list[tuple[float, dict[str, Matrix]]]:
        raise NotImplementedError

    def compile(self, schema: Schema) -> Matrix:
        """The implicit workload matrix of this expression over ``schema``."""
        domain = schema.domain
        blocks: list[Matrix] = []
        for w, by_attr in self._terms(schema):
            unknown = set(by_attr) - set(domain.attributes)
            if unknown:
                raise SchemaMismatchError(
                    f"unknown attributes {sorted(unknown)}; this schema has "
                    f"{list(domain.attributes)}"
                )
            factors = [
                by_attr.get(a, Ones(1, domain[a])) for a in domain.attributes
            ]
            kron = Kronecker(factors)
            blocks.append(kron if w == 1.0 else Weighted(kron, w))
        if not blocks:
            raise ValueError(f"expression {self!r} compiles to no queries")
        return blocks[0] if len(blocks) == 1 else VStack(blocks)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "QueryExpr") -> "QueryExpr":
        if not isinstance(other, QueryExpr):
            return NotImplemented
        return Union([self, other])

    def __mul__(self, weight) -> "QueryExpr":
        w = float(weight)
        if w <= 0:
            raise ValueError(f"expression weights must be positive, got {w}")
        return self if w == 1.0 else WeightedExpr(self, w)

    __rmul__ = __mul__


class Condition(QueryExpr):
    """A single-attribute filter — itself one counting query.

    Conditions are produced by :class:`AttributeRef` methods and compose:
    ``&`` conjoins (across or within attributes), ``~`` negates the
    underlying predicate.
    """

    def __init__(self, attr: str, make: "callable", label: str):
        self.attr = str(attr)
        self._make = make  # (Attribute) -> Predicate
        self.label = label

    def predicate(self, schema: Schema) -> Predicate:
        return self._make(schema.attribute(self.attr))

    def _terms(self, schema):
        return Conjunction([self])._terms(schema)

    def __and__(self, other) -> "Conjunction":
        return Conjunction([self]) & other

    def __invert__(self) -> "Condition":
        make = self._make
        return Condition(
            self.attr, lambda a: Not(make(a)), f"not ({self.label})"
        )

    def __repr__(self) -> str:
        return self.label


class Conjunction(QueryExpr):
    """A conjunction of per-attribute conditions — one counting query.

    Vectorizes (Theorem 1) as the Kronecker product of the per-attribute
    indicator rows; several conditions on the same attribute conjoin at
    the predicate level.
    """

    def __init__(self, conditions: Sequence[Condition]):
        self.conditions = list(conditions)
        if not self.conditions:
            raise ValueError("conjunction needs at least one condition")

    def _terms(self, schema):
        by_attr: dict[str, list[Predicate]] = {}
        for c in self.conditions:
            by_attr.setdefault(c.attr, []).append(c.predicate(schema))
        factors: dict[str, Matrix] = {}
        for attr, preds in by_attr.items():
            n = schema.attribute(attr).size
            pred = preds[0] if len(preds) == 1 else And(*preds)
            factors[attr] = vectorize_set([pred], n)
        return [(1.0, factors)]

    def __and__(self, other) -> "Conjunction":
        if isinstance(other, Condition):
            return Conjunction(self.conditions + [other])
        if isinstance(other, Conjunction):
            return Conjunction(self.conditions + other.conditions)
        return NotImplemented

    def __repr__(self) -> str:
        return " & ".join(f"({c!r})" for c in self.conditions)


class AttributeRef:
    """A named attribute, awaiting a condition: the ``A("age")`` handle."""

    def __init__(self, name: str):
        self.name = str(name)

    def eq(self, value) -> Condition:
        """``attr == value`` (value may be a vocabulary label)."""
        return Condition(
            self.name,
            lambda a, v=value: Equals(a.encode(v)),
            f"{self.name} == {value!r}",
        )

    def isin(self, values) -> Condition:
        """``attr ∈ values`` — a disjunction of equalities.  An empty
        value set is the unsatisfiable predicate (its indicator row is
        all zeros and the answer is identically 0)."""
        vals = list(values)
        return Condition(
            self.name,
            lambda a, vs=vals: InSet([a.encode(v) for v in vs]),
            f"{self.name} in {vals!r}",
        )

    def between(self, lo, hi) -> Condition:
        """``lo <= attr <= hi`` (inclusive, in domain order).  A range
        covering the whole domain collapses to the Total predicate."""

        def make(a, lo=lo, hi=hi):
            lo_c, hi_c = a.encode(lo), a.encode(hi)
            if lo_c == 0 and hi_c == a.size - 1:
                return TruePredicate()
            return Range(lo_c, hi_c)

        return Condition(self.name, make, f"{lo!r} <= {self.name} <= {hi!r}")

    def ge(self, value) -> Condition:
        """``attr >= value``."""
        return Condition(
            self.name,
            lambda a, v=value: (
                TruePredicate() if a.encode(v) == 0 else Range(a.encode(v), a.size - 1)
            ),
            f"{self.name} >= {value!r}",
        )

    def le(self, value) -> Condition:
        """``attr <= value``."""
        return Condition(
            self.name,
            lambda a, v=value: (
                TruePredicate()
                if a.encode(v) == a.size - 1
                else Range(0, a.encode(v))
            ),
            f"{self.name} <= {value!r}",
        )

    def bucketize(self, *intervals) -> "Buckets":
        """A custom bucketization of this attribute: one counting query
        per inclusive ``(lo, hi)`` interval (a bare value is a singleton
        bucket).  ``A("age").bucketize((0, 17), (18, 64), (65, 74), 75)``."""
        return Buckets(self.name, list(intervals))

    def __repr__(self) -> str:
        return f"A({self.name!r})"


def A(name: str) -> AttributeRef:
    """The attribute handle: ``A("age").between(30, 40)``."""
    return AttributeRef(name)


class Buckets(QueryExpr):
    """A custom bucketization of one attribute: one counting query per
    interval (Section 3.3's predicate-set workloads with arbitrary
    per-attribute interval sets).

    Buckets are inclusive ``(lo, hi)`` pairs in vocabulary labels (a
    bare value is a singleton bucket) and may overlap, nest, or leave
    gaps — age bands, income brackets, top-coded tails.  Compiles
    directly through :func:`~repro.workload.predicates.vectorize_set`
    (no ``workload.logical`` detour), and every bucket row is an
    interval indicator, so the compiled query is accelerator-eligible:
    a free hit answers the whole bucketization in one summed-area
    gather.
    """

    def __init__(self, attr: str, intervals: Sequence):
        self.attr = str(attr)
        self.intervals = [
            (iv[0], iv[1]) if isinstance(iv, (tuple, list)) else (iv, iv)
            for iv in intervals
        ]
        if not self.intervals:
            raise ValueError("bucketization needs at least one bucket")
        for iv in intervals:
            if isinstance(iv, (tuple, list)) and len(iv) != 2:
                raise ValueError(
                    f"bucket {iv!r} must be a (lo, hi) pair or a scalar"
                )

    def _terms(self, schema):
        a = schema.attribute(self.attr)
        coded = []
        for lo, hi in self.intervals:
            lo_c, hi_c = a.encode(lo), a.encode(hi)
            if lo_c > hi_c:
                raise ValueError(
                    f"bucket ({lo!r}, {hi!r}) on {self.attr!r} is empty "
                    f"in domain order"
                )
            coded.append((lo_c, hi_c) if lo_c < hi_c else lo_c)
        return [
            (1.0, {self.attr: vectorize_set(bucket_predicates(coded), a.size)})
        ]

    def __repr__(self) -> str:
        return f"buckets({self.attr!r}, {self.intervals!r})"


class Marginal(QueryExpr):
    """Group-by: one counting query per cell of the named attributes."""

    def __init__(self, attrs: Sequence[str]):
        self.attrs = tuple(dict.fromkeys(attrs))  # ordered, deduped

    def _terms(self, schema):
        return [
            (1.0, {a: Identity(schema.attribute(a).size) for a in self.attrs})
        ]

    def __repr__(self) -> str:
        return f"marginal({', '.join(map(repr, self.attrs))})"


class PrefixExpr(QueryExpr):
    """All prefix (CDF) queries on one ordered attribute."""

    def __init__(self, attr: str):
        self.attr = str(attr)

    def _terms(self, schema):
        return [(1.0, {self.attr: Prefix(schema.attribute(self.attr).size)})]

    def __repr__(self) -> str:
        return f"prefix({self.attr!r})"


class RangesExpr(QueryExpr):
    """All interval queries on one ordered attribute."""

    def __init__(self, attr: str):
        self.attr = str(attr)

    def _terms(self, schema):
        return [(1.0, {self.attr: AllRange(schema.attribute(self.attr).size)})]

    def __repr__(self) -> str:
        return f"ranges({self.attr!r})"


class Total(QueryExpr):
    """The single grand-total query."""

    def _terms(self, schema):
        return [(1.0, {})]

    def __repr__(self) -> str:
        return "total()"


class Union(QueryExpr):
    """A union of expressions: their query rows stacked in order."""

    def __init__(self, exprs: Sequence[QueryExpr]):
        parts: list[QueryExpr] = []
        for e in exprs:
            parts.extend(e.exprs if isinstance(e, Union) else [e])
        if not parts:
            raise ValueError("union needs at least one expression")
        self.exprs = parts

    def _terms(self, schema):
        out = []
        for e in self.exprs:
            out.extend(e._terms(schema))
        return out

    def __repr__(self) -> str:
        return " + ".join(f"({e!r})" for e in self.exprs)


class WeightedExpr(QueryExpr):
    """An expression with an accuracy weight (Section 3.3)."""

    def __init__(self, base: QueryExpr, weight: float):
        self.base = base
        self.weight = float(weight)

    def _terms(self, schema):
        return [(w * self.weight, f) for w, f in self.base._terms(schema)]

    def __repr__(self) -> str:
        return f"{self.weight} * ({self.base!r})"


def marginal(*attrs: str) -> Marginal:
    """The marginal (group-by) over the named attributes; ``marginal()``
    is the grand total."""
    return Marginal(attrs) if attrs else Total()


def prefix(attr: str) -> PrefixExpr:
    """All prefix/CDF queries on an ordered attribute."""
    return PrefixExpr(attr)


def ranges(attr: str) -> RangesExpr:
    """All interval queries on an ordered attribute."""
    return RangesExpr(attr)


def total() -> Total:
    """The single total-count query."""
    return Total()


def buckets(attr: str, *intervals) -> Buckets:
    """A custom bucketization of one attribute: ``buckets("age",
    (0, 17), (18, 64), 75)`` answers one count per interval (scalars are
    singleton buckets; intervals may overlap or leave gaps)."""
    return Buckets(attr, list(intervals))


def count(*conditions: Condition) -> QueryExpr:
    """One counting query: the conjunction of the conditions (or the
    grand total when none are given)."""
    if not conditions:
        return Total()
    out = Conjunction([conditions[0]])
    for c in conditions[1:]:
        out = out & c
    return out


def union(*exprs: QueryExpr, weights: Sequence[float] | None = None) -> QueryExpr:
    """A (weighted) union of expressions."""
    if weights is not None:
        if len(weights) != len(exprs):
            raise ValueError("weights must align with expressions")
        exprs = tuple(w * e for w, e in zip(weights, exprs))
    return Union(exprs)
