"""Rule parsing, safety checking and bounded forward chaining."""

import ast
import inspect
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import giots
from giots import rules as rules_module
from giots.rdf import Graph, IRI, Literal, Triple, TriplePattern, TripleStore, Variable, parse_ntriples
from giots.rules import (
    Closure,
    ClosureLimitExceeded,
    DERIVED_PER_BASE_FACT,
    Rule,
    RuleBase,
    RuleFormatError,
    forward_chain,
    parse_rule_json,
)
from giots.sparql import Comparison, eval_filter

CTX = "http://wise-iot.example/context#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

OCCUPIED_RULE = {
    "ruleId": "occupied-when-people-present",
    "body": [f"?room <{CTX}occupancy> ?count", "FILTER(?count >= 1)"],
    "head": [f'?room <{CTX}occupied> "true"'],
}


# --- parsing -----------------------------------------------------------------


def test_parse_rule_with_filter_entry():
    rule = parse_rule_json(OCCUPIED_RULE)
    assert rule.rule_id == "occupied-when-people-present"
    assert len(rule.body) == 1
    assert len(rule.filters) == 1
    assert len(rule.head) == 1
    assert rule.body_variables() == {"room", "count"}
    assert rule.unsafe_head_variables() == set()


def test_parse_rule_with_prefixes():
    rule = parse_rule_json(
        {
            "ruleId": "r",
            "body": ["?a ctx:links ?b"],
            "head": ["?b ctx:linkedFrom ?a"],
        },
        prefixes={"ctx": CTX},
    )
    assert rule.body[0].predicate == IRI(CTX + "links")


@pytest.mark.parametrize(
    "broken",
    [
        "not a dict",
        {},
        {"ruleId": "", "body": ["?a <urn:p> ?b"], "head": ["?a <urn:q> ?b"]},
        {"ruleId": "r", "body": [], "head": ["?a <urn:q> ?b"]},
        {"ruleId": "r", "body": ["?a <urn:p> ?b"], "head": []},
        {"ruleId": "r", "body": [42], "head": ["?a <urn:q> ?b"]},
        {"ruleId": "r", "body": ["?a <urn:p>"], "head": ["?a <urn:q> ?b"]},
        {"ruleId": "r", "body": ["FILTER(?a > 1)"], "head": ["?a <urn:q> ?b"]},
        {"ruleId": "r", "body": ["?a <urn:p> ?b"], "head": ["FILTER(?a > 1)"]},
    ],
)
def test_parse_rule_rejects_malformed_documents(broken):
    with pytest.raises(RuleFormatError):
        parse_rule_json(broken)


@pytest.mark.parametrize("prefixes", [7, {"ctx": 5}])
def test_parse_rule_rejects_prefixes_that_are_not_an_object_of_strings(prefixes):
    rule = {"ruleId": "r", "body": ["?a ctx:links ?b"], "head": ["?b ctx:linkedFrom ?a"]}
    with pytest.raises(RuleFormatError, match="'prefixes'"):
        parse_rule_json(rule, prefixes)


def test_rule_base_rejects_duplicate_ids():
    rule = parse_rule_json(OCCUPIED_RULE)
    with pytest.raises(ValueError):
        RuleBase([rule, rule])
    assert RuleBase([rule]).ids() == {"occupied-when-people-present"}


# --- forward chaining -----------------------------------------------------------


def _facts(text: str) -> Graph:
    return parse_ntriples(text)


def test_single_derivation():
    facts = _facts(f'<urn:room1> <{CTX}occupancy> "4" .')
    derived = forward_chain(facts, [parse_rule_json(OCCUPIED_RULE)])
    assert derived == Graph(
        [Triple(IRI("urn:room1"), IRI(CTX + "occupied"), Literal("true"))]
    )


def test_filter_blocks_derivation():
    facts = _facts(f'<urn:room1> <{CTX}occupancy> "0" .')
    assert len(forward_chain(facts, [parse_rule_json(OCCUPIED_RULE)])) == 0


def test_returns_only_new_triples():
    fact = Triple(IRI("urn:a"), IRI(CTX + "occupied"), Literal("true"))
    facts = Graph([fact, Triple(IRI("urn:a"), IRI(CTX + "occupancy"), Literal("2"))])
    rule = parse_rule_json(
        {
            "ruleId": "r",
            "body": [f"?x <{CTX}occupancy> ?n"],
            "head": [f'?x <{CTX}occupied> "true"'],
        }
    )
    derived = forward_chain(facts, [rule])
    # the conclusion was already a known fact, so nothing is newly derived
    assert len(derived) == 0


def test_transitive_closure_to_fixpoint():
    chain = "\n".join(f"<urn:n{i}> <{CTX}next> <urn:n{i + 1}> ." for i in range(5))
    rule = parse_rule_json(
        {
            "ruleId": "transitive",
            "body": [f"?a <{CTX}next> ?b", f"?b <{CTX}next> ?c"],
            "head": [f"?a <{CTX}next> ?c"],
        }
    )
    derived = forward_chain(_facts(chain), [rule])
    # all ordered pairs i < j except the 5 base edges: C(6,2) - 5
    assert len(derived) == 15 - 5


def test_multiple_rules_feed_each_other():
    facts = _facts(f'<urn:r> <{CTX}occupancy> "3" .')
    first = parse_rule_json(OCCUPIED_RULE)
    second = parse_rule_json(
        {
            "ruleId": "light-follows-occupancy",
            "body": [f'?room <{CTX}occupied> "true"'],
            "head": [f'?room <{CTX}lightsOn> "true"'],
        }
    )
    derived = forward_chain(facts, RuleBase([first, second]))
    assert Triple(IRI("urn:r"), IRI(CTX + "lightsOn"), Literal("true")) in derived
    assert len(derived) == 2


def test_unsafe_rule_is_rejected_by_name():
    unsafe = Rule(
        "bad",
        body=(parse_rule_json(OCCUPIED_RULE).body[0],),
        head=(
            parse_rule_json(
                {"ruleId": "x", "body": ["?a <urn:p> ?b"], "head": ["?room <urn:q> ?elsewhere"]}
            ).head[0],
        ),
    )
    with pytest.raises(ValueError) as excinfo:
        forward_chain(Graph(), [unsafe])
    assert "elsewhere" in str(excinfo.value)
    assert "bad" in str(excinfo.value)


def test_head_instantiations_that_are_not_triples_are_skipped():
    # ?v binds to a literal, which cannot be a subject; the rule fires but
    # that instantiation is dropped rather than failing the closure
    facts = _facts('<urn:s> <urn:p> "lit" .')
    rule = parse_rule_json(
        {"ruleId": "r", "body": ["?s <urn:p> ?v"], "head": ["?v <urn:q> ?s"]}
    )
    assert len(forward_chain(facts, [rule])) == 0


_PAIRS = parse_rule_json(
    {
        "ruleId": "pairs",
        "body": [f"?a <{RDF_TYPE}> ?c", f"?x <{RDF_TYPE}> ?d"],
        "head": [f"?a <{CTX}sees> ?x"],
    }
)


def _typed(count):
    return [Triple(IRI(f"urn:node:{i}"), IRI(RDF_TYPE), IRI("urn:Thing")) for i in range(count)]


def test_derivation_limit_raises(monkeypatch):
    # 35 typed instances and a rule joining two type patterns derive
    # 35 * 35 = 1225 pair facts, 34 per base fact (plus one): blow-up
    added = []

    class CountingStore(TripleStore):
        def add(self, triple):
            added.append(triple)
            return super().add(triple)

    monkeypatch.setattr(rules_module, "TripleStore", CountingStore)
    assert DERIVED_PER_BASE_FACT == 16
    with pytest.raises(ClosureLimitExceeded) as excinfo:
        forward_chain(Graph(_typed(35)), [_PAIRS])
    assert excinfo.value.limit == 16 * 36
    assert len(added) == 35 + 16 * 36 + 1  # chaining stops at the first fact over the bound


def test_custom_limit_is_honoured():
    facts = _facts(f'<urn:r> <{CTX}occupancy> "3" .')
    rule = parse_rule_json(OCCUPIED_RULE)
    with mock.patch.object(rules_module, "DERIVED_PER_BASE_FACT", 0):
        with pytest.raises(ClosureLimitExceeded) as excinfo:
            forward_chain(facts, [rule])
    assert excinfo.value.limit == 0
    assert len(forward_chain(facts, [rule])) == 1


def test_the_bound_grows_with_the_base_and_shrinks_with_it():
    # 20 typed nodes derive 400 pairs: 16 x (20 + 1) = 336 is too few,
    # and five more base facts that take part in no rule make it 416
    fillers = [Triple(IRI(f"urn:filler:{i}"), IRI("urn:p"), Literal(str(i))) for i in range(5)]
    with pytest.raises(ClosureLimitExceeded):
        forward_chain(Graph(_typed(20)), [_PAIRS])
    closure = Closure([_PAIRS])
    closure.update(_typed(20) + fillers)
    assert len(closure.derived()) == 400
    facts = set(closure.facts.triples())
    # removing the fillers derives nothing and removes nothing derived,
    # but it lowers the bound below the 400 derived facts
    with pytest.raises(ClosureLimitExceeded) as excinfo:
        closure.update(removed=fillers)
    assert excinfo.value.limit == 336
    assert closure.facts.triples() == facts
    closure.update(removed=_typed(20)[:2])  # 18 x 18 = 324 pairs fit under 16 x (23 + 1)
    assert len(closure.derived()) == 324


def test_only_the_rules_module_bounds_a_closure():
    """The bound is worked out from the input inside rules.py: no other
    module reads the constant, and no call to Closure or forward_chain
    passes more than the rules and the facts."""
    assert list(inspect.signature(Closure.__init__).parameters) == ["self", "rules"]
    assert list(inspect.signature(forward_chain).parameters) == ["graph", "rules"]
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    arity = {"Closure": 1, "forward_chain": 2}
    named, calls = set(), set()
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if name(node) == "DERIVED_PER_BASE_FACT":
                named.add(path.name)
            if isinstance(node, ast.Call) and name(node.func) in arity:
                calls.add((path.name, name(node.func), len(node.args), len(node.keywords)))
    assert named == {"rules.py"}
    assert {("agent.py", "Closure"), ("validator.py", "forward_chain")} <= {c[:2] for c in calls}
    assert all(args == arity[func] and not keywords for _, func, args, keywords in calls)


def test_chaining_is_deterministic():
    facts = _facts(
        f'<urn:a> <{CTX}occupancy> "1" .\n<urn:b> <{CTX}occupancy> "2" .'
    )
    rule = parse_rule_json(OCCUPIED_RULE)
    assert forward_chain(facts, [rule]) == forward_chain(facts, [rule])


# --- semi-naive chaining against a naive fixpoint ----------------------------------


def _scan_join(triples, patterns, binding):
    """Every extension of the binding under which all patterns match triples."""
    if not patterns:
        yield binding
        return
    first, rest = patterns[0], patterns[1:]
    for triple in triples:
        extended = dict(binding)
        for slot, term in zip(first.slots(), (triple.subject, triple.predicate, triple.object)):
            if isinstance(slot, Variable):
                if extended.setdefault(slot.name, term) != term:
                    break
            elif slot != term:
                break
        else:
            yield from _scan_join(triples, rest, extended)


def _naive_closure(graph, rules, ratio):
    """Reference: fire every rule over every known fact until nothing is
    new, and raise once the derived facts outnumber ratio x (facts + 1)."""
    bound = ratio * (len(graph) + 1)
    known = set(graph.triples())
    derived = set()
    while True:
        fresh = set()
        for rule in rules:
            for binding in _scan_join(sorted(known, key=Triple.text), rule.body, {}):
                if not all(eval_filter(f, binding) for f in rule.filters):
                    continue
                for pattern in rule.head:
                    terms = [binding[s.name] if isinstance(s, Variable) else s for s in pattern.slots()]
                    try:
                        triple = Triple(*terms)
                    except ValueError:
                        continue
                    if triple not in known:
                        fresh.add(triple)
        if not fresh:
            return Graph(derived)
        known |= fresh
        derived |= fresh
        if len(derived) > bound:
            raise ClosureLimitExceeded(bound)


_NODES = [IRI("urn:a"), IRI("urn:b"), IRI("urn:c"), IRI("urn:d")]
_PREDICATES = [IRI("urn:p"), IRI("urn:q")]
_VARIABLES = [Variable("x"), Variable("y"), Variable("z")]
_small_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES + [Literal("1")]),
    ),
    max_size=10,
).map(Graph)


@st.composite
def _rules(draw, rule_id):
    slot = st.sampled_from(_VARIABLES + _NODES)
    body = draw(st.lists(
        st.builds(TriplePattern, slot, st.sampled_from(_PREDICATES + _VARIABLES[:1]), slot),
        min_size=1, max_size=3,
    ))
    names = sorted(set().union(*(p.variables() for p in body)))
    bound = st.sampled_from([Variable(n) for n in names] + _NODES)
    head = draw(st.lists(
        st.builds(TriplePattern, bound, st.sampled_from(_PREDICATES), bound), min_size=1, max_size=2,
    ))
    filters = ()
    if len(names) > 1 and draw(st.booleans()):
        filters = (Comparison("!=", Variable(names[0]), Variable(names[1])),)
    return Rule(rule_id, tuple(body), tuple(head), filters)


_TRANSITIVE = parse_rule_json(
    {"ruleId": "transitive", "body": ["?x <urn:p> ?y", "?y <urn:p> ?z"], "head": ["?x <urn:p> ?z"]}
)
_CHAIN = Graph(Triple(IRI(f"urn:n{i}"), IRI("urn:p"), IRI(f"urn:n{i + 1}")) for i in range(11))


@settings(deadline=None)
@given(
    _small_graphs,
    st.integers(1, 3).flatmap(lambda n: st.tuples(*(_rules(f"r{i}") for i in range(n)))),
    st.integers(0, 5),
)
# 11 edges derive 10, 27, 49 and 55 paths by the end of rounds one to four
@example(_CHAIN, (_TRANSITIVE,), 5)  # the closure takes four rounds: 55 <= 5 x 12
@example(_CHAIN, (_TRANSITIVE,), 3)  # the cap, 3 x 12 = 36, is crossed in round three
def test_semi_naive_chaining_equals_a_naive_fixpoint(graph, rules, ratio):
    with mock.patch.object(rules_module, "DERIVED_PER_BASE_FACT", ratio):
        try:
            expected = _naive_closure(graph, rules, ratio)
        except ClosureLimitExceeded:
            with pytest.raises(ClosureLimitExceeded):
                forward_chain(graph, list(rules))
            return
        assert forward_chain(graph, list(rules)) == expected


# --- a maintained closure against chaining from scratch ---------------------------------


_rule_sets = st.tuples(
    st.booleans(),
    st.integers(0, 2).flatmap(lambda n: st.tuples(*(_rules(f"r{i}") for i in range(n)))),
).filter(lambda t: t[0] or t[1]).map(lambda t: ((_TRANSITIVE,) if t[0] else ()) + t[1])


@settings(deadline=None, max_examples=300)
@given(st.data(), _rule_sets, st.one_of(st.integers(0, 5), st.just(DERIVED_PER_BASE_FACT)))
def test_a_maintained_closure_equals_chaining_from_scratch(data, rules, ratio):
    """Random batches of added and removed base facts, with recursive and
    filtered rules: after every batch the closure's derived facts equal a
    from-scratch chain of its base, and it raises iff that chain raises,
    also when a batch only lowers the bound by removing base facts.
    A batch that raises leaves the closure as it was, and the later ones
    still agree; one that succeeds returns at least every fact that came
    or went or moved between base and derived."""
    with mock.patch.object(rules_module, "DERIVED_PER_BASE_FACT", ratio):
        closure = Closure(list(rules))
        base: set = set()
        for _ in range(data.draw(st.integers(1, 5), label="batches")):
            removed = set()
            if base:
                removed = set(data.draw(
                    st.lists(st.sampled_from(sorted(base, key=Triple.text)), max_size=4), label="removed"))
            batch = st.one_of(st.just(Graph()), _small_graphs, st.just(_CHAIN))
            added = data.draw(batch, label="added").triples()
            facts, derived = set(closure.facts.triples()), closure.derived()
            try:
                expected = forward_chain(Graph((base - removed) | added), list(rules))
            except ClosureLimitExceeded:
                with pytest.raises(ClosureLimitExceeded):
                    closure.update(added, removed)
                assert closure.derived() == derived
                assert closure.facts.triples() == facts  # so the base is as it was too
                continue
            touched = closure.update(added, removed)
            base = (base - removed) | added
            assert closure.derived() == expected
            assert closure.facts.triples() - expected.triples() == base
            old_base = facts - derived.triples()
            changed = (facts ^ closure.facts.triples()) | (old_base ^ base)
            assert changed <= touched


def test_a_removed_base_fact_that_still_follows_stays_derived():
    a, b, c = (IRI(f"urn:{n}") for n in "abc")
    p = IRI("urn:p")
    closure = Closure([_TRANSITIVE])
    closure.update([Triple(a, p, b), Triple(b, p, c), Triple(a, p, c)])
    assert len(closure.derived()) == 0  # a-c is a base fact
    closure.update(removed=[Triple(a, p, c)])
    assert closure.derived() == Graph([Triple(a, p, c)])  # rederived through b
    closure.update(removed=[Triple(b, p, c)])
    assert len(closure.derived()) == 0


def test_removing_a_middle_edge_deletes_every_pair_across_it():
    closure = Closure([_TRANSITIVE])
    closure.update(_CHAIN.triples())
    middle = Triple(IRI("urn:n5"), IRI("urn:p"), IRI("urn:n6"))
    closure.update(removed=[middle])
    assert closure.derived() == forward_chain(Graph(_CHAIN.triples() - {middle}), [_TRANSITIVE])
    assert Triple(IRI("urn:n0"), IRI("urn:p"), IRI("urn:n11")) not in closure.derived()
