import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from upto import (
    AutParseError,
    LatticeValidationError,
    Lts,
    Relation,
    parse_aut,
    parse_lattice,
    parse_progression,
    render_aut,
    render_relation,
    export_dot,
)
from upto.formats import (
    LatticeParseError,
    RelationParseError,
    parse_aut_document,
    parse_relation_document,
    resolve_relation,
)
from upto.lattice import (
    chain_lattice,
    diamond_lattice,
    m3_lattice,
    pentagon_lattice,
    powerset_lattice,
    validate_lattice,
)
from upto.lts import MAX_LATTICE_ELEMENTS, MAX_STATES

from helpers import small_lts, squared_closure

T2_AUT = 'des (0,3,3)\n(1,"t",0)\n(2,"t",0)\n(2,"t",1)\n'


@st.composite
def text_labelled_lts(draw):
    n = draw(st.integers(1, 4))
    label = st.text(min_size=1, max_size=6).filter(lambda t: t.splitlines() == [t])
    triples = draw(
        st.lists(st.tuples(st.integers(0, n - 1), label, st.integers(0, n - 1)), max_size=8)
    )
    return Lts([str(i) for i in range(n)], triples)


class TestParseAut:
    def test_t1(self):
        lts = parse_aut('des (0,1,2)\n(1,"t",0)\n')
        assert lts.n_states == 2
        assert list(lts.triples()) == [(1, "t", 0)]

    def test_single_deadlocked_state(self):
        lts = parse_aut("des (0,0,1)\n")
        assert lts.n_states == 1 and lts.n_transitions == 0

    def test_t2(self, t2):
        assert parse_aut(T2_AUT) == t2

    def test_whitespace_tolerant(self):
        lts = parse_aut('  des ( 0 , 1 , 2 )\n\n ( 1 , "t" , 0 ) \n')
        assert list(lts.triples()) == [(1, "t", 0)]

    def test_label_content_kept_exactly(self):
        lts = parse_aut('des (0,1,2)\n(0,"tau, maybe",1)\n')
        assert lts.labels[0] == "tau, maybe"

    def test_malformed_header(self):
        with pytest.raises(AutParseError, match="line 1.*header"):
            parse_aut("des 0,1,2\n")
        with pytest.raises(AutParseError, match="line 1"):
            parse_aut("")

    def test_count_mismatch(self):
        with pytest.raises(AutParseError, match="declares 2 transitions, found 1"):
            parse_aut('des (0,2,2)\n(0,"a",1)\n')

    def test_index_out_of_range(self):
        with pytest.raises(AutParseError, match="line 2.*out of range"):
            parse_aut('des (0,1,2)\n(0,"a",5)\n')
        with pytest.raises(AutParseError, match="initial state"):
            parse_aut('des (9,0,2)\n')

    def test_state_count_past_the_limit(self):
        assert MAX_STATES == 10**6
        assert parse_aut_document(f"des (0,0,{MAX_STATES})\n").header == (0, 0, MAX_STATES)
        with pytest.raises(AutParseError) as error:
            parse_aut(f"\ndes (0,0,{MAX_STATES + 1})\n")
        assert str(error.value) == f"line 2: {MAX_STATES + 1} states; at most {MAX_STATES} are built"

    def test_unterminated_quote(self):
        with pytest.raises(AutParseError, match="line 2.*unterminated quote"):
            parse_aut('des (0,1,2)\n(0,"a,1)\n')

    def test_empty_label(self):
        with pytest.raises(AutParseError, match="line 2.*empty label"):
            parse_aut('des (0,1,2)\n(0,"",1)\n')

    def test_document_view(self):
        doc = parse_aut_document(T2_AUT)
        assert doc.header == (0, 3, 3)
        assert doc.body[0] == (1, "t", 0)


class TestRenderAut:
    def test_t2_round_trip_text(self, t2):
        assert render_aut(t2) == T2_AUT

    @settings(max_examples=80, deadline=None)
    @given(small_lts(max_states=5))
    def test_round_trip(self, lts):
        assert parse_aut(render_aut(lts)) == lts

    @settings(max_examples=200, deadline=None)
    @given(text_labelled_lts())
    def test_round_trip_text_labels(self, lts):
        assert parse_aut(render_aut(lts)) == lts


class TestRelationDocuments:
    def test_empty_file(self, t2):
        assert resolve_relation(parse_relation_document(""), t2) == Relation.empty(3)
        assert resolve_relation(parse_relation_document("   \n \n"), t2) == Relation.empty(3)

    def test_line_format(self, t2):
        r = resolve_relation(parse_relation_document("1 2\n"), t2)
        assert r == Relation.from_pairs(3, [(1, 2)])

    def test_comments_and_duplicates(self, t2):
        text = "# candidate\n1 2\n1 2\n0 0\n"
        r = resolve_relation(parse_relation_document(text), t2)
        assert r == Relation.from_pairs(3, [(1, 2), (0, 0)])

    def test_json_object_with_name(self, t2):
        doc = parse_relation_document(json.dumps({"name": "demo", "pairs": [[1, 2]]}))
        assert doc.name == "demo"
        assert doc.pairs == (("1", "2"),)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(RelationParseError, match="nested too deeply"):
            parse_relation_document("[" * 200000)
        # json.loads gives up first on the deepest documents; somewhat
        # shallower ones parse, and str() of the deep entry gives up instead
        for depth in range(800, 1100, 7):
            deep = "[" * depth + "]" * depth
            for text in ("[" * depth, f'{{"pairs": [[{deep}, "0"]]}}'):
                try:
                    parse_relation_document(text)
                except RelationParseError:
                    pass

    def test_json_bare_array(self, t2):
        r = resolve_relation(parse_relation_document("[[0, 1], [2, 2]]"), t2)
        assert r == Relation.from_pairs(3, [(0, 1), (2, 2)])

    def test_names_resolve_before_indices(self, loop_vs_cycle):
        # this system has display names p, q1, q2
        r = resolve_relation(parse_relation_document("p q1\n"), loop_vs_cycle)
        assert r == Relation.from_pairs(3, [(0, 1)])

    def test_name_wins_over_index(self):
        lts = Lts(["1", "0"], [])
        r = resolve_relation(parse_relation_document("1 0\n"), lts)
        assert r == Relation.from_pairs(2, [(0, 1)])

    def test_unresolvable_name(self, t2):
        with pytest.raises(RelationParseError, match="cannot resolve"):
            resolve_relation(parse_relation_document("0 nope\n"), t2)

    def test_wrong_token_count(self, t2):
        with pytest.raises(RelationParseError, match="line 2"):
            resolve_relation(parse_relation_document("0 1\n0 1 2\n"), t2)

    def test_bad_json(self, t2):
        with pytest.raises(RelationParseError):
            resolve_relation(parse_relation_document("{invalid"), t2)

    def test_render_sorted(self, t2):
        r = Relation.from_pairs(3, [(2, 1), (0, 0)])
        assert render_relation(r) == "{(0,0), (2,1)}"
        assert render_relation(r, t2.state_names) == "{(0,0), (2,1)}"

    def test_render_limit_is_checked_before_any_pair(self, monkeypatch):
        monkeypatch.setattr("upto.formats.MAX_RENDERED_PAIRS", 4)
        assert render_relation(Relation.full(2)) == "{(0,0), (0,1), (1,0), (1,1)}"
        with pytest.raises(ValueError, match="relation has 9 pairs; at most 4 are rendered"):
            render_relation(Relation.full(3))


class TestLatticeDocuments:
    DIAMOND = json.dumps(
        {
            "elements": ["bot", "x", "y", "top"],
            "cover": [["bot", "x"], ["bot", "y"], ["x", "top"], ["y", "top"]],
        }
    )

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(LatticeParseError, match="nested too deeply"):
            parse_lattice("[" * 200000)
        for depth in range(800, 1100, 7):
            deep = "[" * depth + "]" * depth
            for text in (
                f'{{"elements": [{deep}], "leq": []}}',
                f'{{"elements": ["a"], "leq": [[{deep}, "a"]]}}',
            ):
                with pytest.raises(LatticeParseError):
                    parse_lattice(text)

    def test_diamond_from_covers(self):
        lat = parse_lattice(self.DIAMOND)
        assert lat.size == 4
        assert lat.join(lat.index("x"), lat.index("y")) == lat.index("top")

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3 * m),
            )
        )
    )
    def test_cover_closure_matches_squaring(self, drawn):
        # any cover, cycles and (a, a) pairs included: the order handed to
        # validation is its reflexive-transitive closure
        m, pairs = drawn
        names = [f"e{i}" for i in range(m)]
        text = json.dumps({"elements": names, "cover": [[names[a], names[b]] for a, b in pairs]})
        handed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("upto.lattice.validate_lattice", lambda elements, order: handed.append(order))
            parse_lattice(text)
        (order,) = handed
        assert set(order) == squared_closure(m, pairs)

    def test_full_order_form(self):
        text = json.dumps(
            {"elements": ["b", "t"], "leq": [["b", "b"], ["b", "t"], ["t", "t"]]}
        )
        lat = parse_lattice(text)
        assert lat.top == lat.index("t")

    def test_must_pick_exactly_one_kind(self):
        with pytest.raises(LatticeParseError, match="exactly one"):
            parse_lattice(json.dumps({"elements": ["a"], "cover": [], "leq": []}))
        with pytest.raises(LatticeParseError, match="exactly one"):
            parse_lattice(json.dumps({"elements": ["a"]}))

    def test_unknown_element_in_pair(self):
        with pytest.raises(LatticeParseError, match="unknown"):
            parse_lattice(json.dumps({"elements": ["a"], "cover": [["a", "z"]]}))

    def test_axiom_violations_forwarded(self):
        text = json.dumps(
            {"elements": ["bot", "x", "y"], "cover": [["bot", "x"], ["bot", "y"]]}
        )
        with pytest.raises(LatticeValidationError):
            parse_lattice(text)

    def test_element_count_past_the_limit(self, monkeypatch):
        assert MAX_LATTICE_ELEMENTS == 1000
        monkeypatch.setattr("upto.formats.MAX_LATTICE_ELEMENTS", 4)
        assert parse_lattice(self.DIAMOND).size == 4

        def no_closing(*args):
            raise AssertionError("closed a lattice past the limit")

        monkeypatch.setattr(Relation, "from_pairs", no_closing)
        five = json.dumps({"elements": ["a", "b", "c", "d", "e"], "cover": []})
        with pytest.raises(LatticeParseError) as error:
            parse_lattice(five)
        assert str(error.value) == "lattice has 5 elements; at most 4 are built"

    def test_progression_file(self):
        lat = parse_lattice(self.DIAMOND)
        pairs = [[a, b] for a in lat.elements for b in lat.elements if lat.le(lat.index(a), lat.index(b))]
        prog = parse_progression(json.dumps({"pairs": pairs}), lat)
        assert prog.rel == lat.order

    def test_non_progression_rejected(self):
        lat = parse_lattice(self.DIAMOND)
        with pytest.raises(ValueError, match="not a progression"):
            parse_progression("", lat)


# state names that a pair line splits off whole and that no parser reads as
# the start of a comment or of a JSON document
_PLAIN_NAME = st.text(alphabet="abcxyz019_.'~*", min_size=1, max_size=4)
_ONE_LINE = st.text(max_size=8).filter(lambda t: t.splitlines() in ([], [t]))


@st.composite
def named_relations(draw):
    names = draw(st.lists(_PLAIN_NAME, min_size=1, max_size=6, unique=True))
    lts = Lts(names, [])
    indices = st.integers(0, len(names) - 1)
    return lts, draw(st.lists(st.tuples(indices, indices), max_size=20))


def _divisor_lattice(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    order = [(i, j) for i, a in enumerate(divisors) for j, b in enumerate(divisors) if b % a == 0]
    return validate_lattice([str(d) for d in divisors], Relation.from_pairs(len(divisors), order))


STANDARD_LATTICES = {
    **{f"chain{k}": (lambda k=k: chain_lattice(k)) for k in range(1, 6)},
    **{f"powerset{k}": (lambda k=k: powerset_lattice(k)) for k in range(4)},
    "diamond": diamond_lattice,
    "pentagon": pentagon_lattice,
    "m3": m3_lattice,
}


class TestDocumentRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(named_relations(), st.none() | _ONE_LINE)
    def test_relation_documents(self, drawn, name):
        lts, pairs = drawn
        names = lts.state_names
        expected = Relation.from_pairs(lts.n_states, pairs)
        lines = "".join(f"{names[p]} {names[q]}\n" for p, q in pairs)
        listed = {"pairs": [[names[p], names[q]] for p, q in pairs]}
        named = listed if name is None else {"name": name, **listed}
        documents = ((lines, None), (json.dumps(listed), None), (json.dumps(named), name))
        for text, parsed_name in documents:
            doc = parse_relation_document(text)
            assert doc.name == parsed_name
            assert resolve_relation(doc, lts) == expected

    @staticmethod
    def _assert_round_trips(lat):
        names, le, m = lat.elements, lat.le, lat.size
        below = [(a, b) for a in range(m) for b in range(m) if a != b and le(a, b)]
        between = lambda a, b: any(le(a, c) and le(c, b) for c in range(m) if c not in (a, b))
        cover = [(a, b) for a, b in below if not between(a, b)]
        diagonal = [(a, a) for a in range(m)]
        # a cover may list (a, a) pairs: they are closed like the others
        kinds = (("leq", diagonal + below), ("cover", cover), ("cover", cover + diagonal))
        for kind, pairs in kinds:
            written = [[names[a], names[b]] for a, b in pairs]
            assert parse_lattice(json.dumps({"elements": list(names), kind: written})) == lat

    @pytest.mark.parametrize("name", STANDARD_LATTICES)
    def test_standard_lattice_documents(self, name):
        self._assert_round_trips(STANDARD_LATTICES[name]())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60))
    def test_divisor_lattice_documents(self, n):
        self._assert_round_trips(_divisor_lattice(n))


class TestDotExport:
    def test_structure(self, loop_vs_cycle):
        dot = export_dot(loop_vs_cycle)
        assert dot.startswith("digraph lts {")
        assert '0 [label="p"];' in dot
        assert '1 -> 2 [label="a"];' in dot
        assert dot.endswith("}\n")

    def test_escaping(self):
        lts = Lts(['say "hi"'], [(0, 'a"b', 0)])
        dot = export_dot(lts)
        assert 'label="say \\"hi\\""' in dot
        assert 'label="a\\"b"' in dot
