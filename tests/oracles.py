"""Independent result oracles and seeded random generators.

Everything in this module recomputes expected answers from first principles:
the query oracle enumerates every pattern-to-triple assignment instead of
joining, the subsumption oracle closes the subclass relation with
Floyd-Warshall instead of searching, and the unit conversions are written
out by hand. None of it calls the production join, closure, traversal or
conversion code, so a disagreement always points at the code under test.
"""

from __future__ import annotations

import itertools
import random
from decimal import Decimal, InvalidOperation

from giots.rdf import (
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Triple,
    TriplePattern,
    Variable,
    term_text,
)
from giots.sparql import And, Comparison, Not, Or, Query

XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_BOOLEAN = XSD_NS + "boolean"


# --- query answering by exhaustive assignment ---------------------------------


def _oracle_decimal(term) -> Decimal | None:
    if not isinstance(term, Literal):
        return None
    try:
        value = Decimal(term.lexical.strip())
    except (InvalidOperation, ValueError):
        return None
    return value if value.is_finite() else None


def oracle_filter_holds(expr, binding: dict) -> bool:
    """Filter truth under error-as-false semantics, recomputed directly."""
    if isinstance(expr, Comparison):
        left = binding.get(expr.left.name) if isinstance(expr.left, Variable) else expr.left
        right = binding.get(expr.right.name) if isinstance(expr.right, Variable) else expr.right
        if left is None or right is None:
            return False
        lnum, rnum = _oracle_decimal(left), _oracle_decimal(right)
        if expr.op == "<":
            return lnum is not None and rnum is not None and lnum < rnum
        if expr.op == "<=":
            return lnum is not None and rnum is not None and lnum <= rnum
        if expr.op == ">":
            return lnum is not None and rnum is not None and lnum > rnum
        if expr.op == ">=":
            return lnum is not None and rnum is not None and lnum >= rnum
        equal = lnum == rnum if (lnum is not None and rnum is not None) else left == right
        return equal if expr.op == "=" else not equal
    if isinstance(expr, Not):
        return not oracle_filter_holds(expr.inner, binding)
    if isinstance(expr, And):
        return all(oracle_filter_holds(part, binding) for part in expr.parts)
    if isinstance(expr, Or):
        return any(oracle_filter_holds(part, binding) for part in expr.parts)
    raise TypeError(f"not a filter expression: {expr!r}")


def _assignment_binding(patterns, triples) -> dict | None:
    """Bindings induced by matching pattern i against triple i, or None."""
    binding: dict = {}
    for pattern, triple in zip(patterns, triples):
        for slot, term in zip(pattern.slots(), (triple.subject, triple.predicate, triple.object)):
            if isinstance(slot, Variable):
                seen = binding.get(slot.name)
                if seen is None:
                    binding[slot.name] = term
                elif seen != term:
                    return None
            elif slot != term:
                return None
    return binding


def _ground_compatible(pattern: TriplePattern, triple: Triple) -> bool:
    # A triple that disagrees with a ground slot can never take part in a
    # consistent assignment, so skipping it only prunes rejected cases.
    for slot, term in zip(pattern.slots(), (triple.subject, triple.predicate, triple.object)):
        if not isinstance(slot, Variable) and slot != term:
            return False
    return True


def _all_bindings(query: Query, graph: Graph):
    triples = list(graph)  # canonical order, so the cases do not depend on the hash seed
    candidates = [
        [t for t in triples if _ground_compatible(pattern, t)]
        for pattern in query.patterns
    ]
    for combo in itertools.product(*candidates):
        binding = _assignment_binding(query.patterns, combo)
        if binding is None:
            continue
        if all(oracle_filter_holds(f, binding) for f in query.filters):
            yield binding


def frozen_row(binding: dict, names=None) -> frozenset:
    keep = binding if names is None else {n: binding[n] for n in names if n in binding}
    return frozenset((name, term_text(term)) for name, term in keep.items())


def brute_force_select(query: Query, graph: Graph) -> set[frozenset]:
    """All distinct projected rows, ignoring order."""
    if query.projected is not None:
        names = list(query.projected)
    else:
        names = sorted(set().union(set(), *(p.variables() for p in query.patterns)))
    return {frozen_row(binding, names) for binding in _all_bindings(query, graph)}


def brute_force_ask(query: Query, graph: Graph) -> bool:
    for _ in _all_bindings(query, graph):
        return True
    return False


# --- subclass reachability by matrix closure -----------------------------------


def reachability_closure(nodes: list[str], edges: set[tuple[str, str]]) -> dict[tuple[str, str], bool]:
    """Reflexive-transitive closure of the edge relation, Floyd-Warshall style."""
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for sub, sup in edges:
        reach[index[sub]][index[sup]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {(a, b): reach[index[a]][index[b]] for a in nodes for b in nodes}


# --- unit conversions by hand ---------------------------------------------------


def kelvin_from_celsius(value: str | int | float) -> Decimal:
    return Decimal(str(value)) + Decimal("273.15")


def celsius_from_fahrenheit(value: str | int | float) -> Decimal:
    return (Decimal(str(value)) - 32) * 5 / 9


def scaled(value: str | int | float, factor: str) -> Decimal:
    return Decimal(str(value)) * Decimal(factor)


# --- seeded random data ----------------------------------------------------------

_IRI_POOL_BODIES = [
    "http://example.org/a",
    "http://example.org/b",
    "http://example.org/path/to/thing",
    "urn:uuid:0f3e",
    "urn:room:12",
    "http://example.org/caf%C3%A9",
    "http://example.org/page#frag",
    "http://example.org/q?x=1&y=2",
    "tag:数値",
    "urn:emoji:\U0001f321",
]

_LEXICAL_POOL = [
    "",
    "plain",
    "two words",
    "line\nbreak",
    "tab\there",
    'quote " inside',
    "back\\slash",
    "trailing space ",
    " 42 ",
    "100",
    "3.25",
    "-7",
    "0.5",
    "1e3",
    "inf",
    "nan",
    "warm",
    "true",
    "café 日本語",
]

_DATATYPES = [None, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, "http://example.org/custom"]
_LANGS = ["en", "de", "en-GB", "pt-BR2"]


def random_term(rng: random.Random, kinds: str = "ibl"):
    kind = rng.choice(kinds)
    if kind == "i":
        return IRI(rng.choice(_IRI_POOL_BODIES))
    if kind == "b":
        return BlankNode(f"n{rng.randrange(6)}")
    lexical = rng.choice(_LEXICAL_POOL)
    if rng.random() < 0.25:
        return Literal(lexical, language=rng.choice(_LANGS))
    datatype = rng.choice(_DATATYPES)
    if datatype is None:
        return Literal(lexical)
    return Literal(lexical, datatype=datatype)


def random_triple(rng: random.Random) -> Triple:
    return Triple(
        random_term(rng, "iib"),
        random_term(rng, "i"),
        random_term(rng, "iblll"),
    )


def random_graph(rng: random.Random, max_triples: int) -> Graph:
    count = rng.randrange(max_triples + 1)
    return Graph(random_triple(rng) for _ in range(count))


def random_query(rng: random.Random, graph: Graph) -> Query:
    """A random query whose ground slots are biased toward graph terms."""
    triples = list(graph)  # canonical order, so the cases do not depend on the hash seed
    var_names = ["a", "b", "c", "d"]
    pattern_count = rng.choice([1, 1, 2, 2, 2, 3])
    patterns = []
    for _ in range(pattern_count):
        slots = []
        for position in range(3):
            roll = rng.random()
            if roll < 0.45 and triples:
                source = rng.choice(triples)
                slots.append((source.subject, source.predicate, source.object)[position])
            elif roll < 0.55:
                kinds = "i" if position == 1 else ("ib" if position == 0 else "ibl")
                slots.append(random_term(rng, kinds))
            else:
                slots.append(Variable(rng.choice(var_names)))
        patterns.append(TriplePattern(*slots))
    pattern_vars = sorted(set().union(set(), *(p.variables() for p in patterns)))

    def random_operand():
        roll = rng.random()
        if roll < 0.55 and pattern_vars:
            return Variable(rng.choice(pattern_vars))
        if roll < 0.62:
            return Variable("unbound")
        if roll < 0.85:
            lexical = rng.choice(["0", "1", "3.25", "42", "-7", "100", "1e3"])
            return Literal(lexical, datatype=rng.choice([XSD_INTEGER, XSD_DECIMAL]))
        return random_term(rng, "il")

    def random_comparison():
        return Comparison(rng.choice(["=", "!=", "<", "<=", ">", ">="]), random_operand(), random_operand())

    def random_filter():
        roll = rng.random()
        if roll < 0.5:
            expr = random_comparison()
        elif roll < 0.75:
            expr = And((random_comparison(), random_comparison()))
        else:
            expr = Or((random_comparison(), random_comparison()))
        if rng.random() < 0.25:
            expr = Not(expr)
        return expr

    filters = tuple(random_filter() for _ in range(rng.choice([0, 0, 1, 1, 2])))
    if rng.random() < 0.25:
        return Query("ASK", None, tuple(patterns), filters)
    if rng.random() < 0.5 or not pattern_vars:
        projected = None
    else:
        projected = tuple(sorted(rng.sample(pattern_vars, rng.randrange(1, len(pattern_vars) + 1))))
    return Query("SELECT", projected, tuple(patterns), filters)


def random_class_dag(rng: random.Random, max_classes: int) -> tuple[list[str], set[tuple[str, str]]]:
    """Class IRIs plus acyclic subclass edges (each edge points 'upward')."""
    count = rng.randrange(1, max_classes + 1)
    names = [f"http://example.org/cls#C{i:02d}" for i in range(count)]
    edges: set[tuple[str, str]] = set()
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.15:
                edges.add((names[i], names[j]))
    return names, edges


def dag_to_ntriples(names: list[str], edges: set[tuple[str, str]]) -> str:
    lines = [
        f"<{name}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        f"<http://www.w3.org/2002/07/owl#Class> ."
        for name in names
    ]
    lines += [
        f"<{sub}> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{sup}> ."
        for sub, sup in sorted(edges)
    ]
    return "\n".join(lines) + "\n"
