"""Jurisdiction identifiers and tree validation."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import canton_id, make_canton_tree, uneven_tree_paths
from votewire.tree import JurisdictionId, JurisdictionTree, tree_from_paths


class TestJurisdictionId:
    def test_round_trips_through_text(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert str(jid) == "CH/ZH/Uster"
        assert JurisdictionId.from_text("CH/ZH/Uster") == jid

    def test_parent_depth_name(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert jid.name == "Uster"
        assert jid.depth == 2
        assert jid.parent == JurisdictionId.of("CH", "ZH")
        assert jid.parent.parent.parent is None

    @pytest.mark.parametrize("segment", ["a/b", "a\nb", ""])
    def test_rejects_unrepresentable_segments(self, segment):
        with pytest.raises(ValueError):
            JurisdictionId.of("CH", segment)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            JurisdictionId(())

    def test_cached_hash_keeps_value_semantics(self):
        jid = JurisdictionId.of("CH", "ZH")
        twin = JurisdictionId(("CH", "ZH"))
        assert jid == twin and hash(jid) == hash(twin) == hash((("CH", "ZH"),))
        assert jid != JurisdictionId.of("CH", "BE")
        assert repr(jid) == "JurisdictionId(path=('CH', 'ZH'))"
        assert {jid: 1}[twin] == 1

    def test_pickle_rebuilds_the_hash_in_the_loading_process(self):
        jid = JurisdictionId.of("CH", "ZH")
        # What pickle stores is the path alone, so a process with another
        # string-hash seed recomputes the hash instead of loading a stale one.
        assert jid.__reduce__() == (JurisdictionId, (("CH", "ZH"),))
        assert pickle.loads(pickle.dumps(jid)) == jid

    def test_slash_ban_keeps_text_form_injective(self):
        # No two distinct ids may render to the same string.
        with pytest.raises(ValueError):
            JurisdictionId.of("CH", "ZH/Uster")


segments = st.text(
    alphabet=st.characters(blacklist_characters="/\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
paths = st.lists(segments, min_size=1, max_size=4).map(tuple)


class TestStoredText:
    """Each id keeps its text from construction; only the path counts."""

    @given(path=paths)
    def test_text_is_the_joined_path_however_the_id_is_built(self, path):
        built = [
            JurisdictionId.of(*path),
            JurisdictionId.from_text("/".join(path)),
            JurisdictionId.of(*path, "extra").parent,
        ]
        built += [copy.copy(jid) for jid in built] + [pickle.loads(pickle.dumps(jid)) for jid in built]
        for jid in built:
            assert jid == JurisdictionId(path)
            assert str(jid) == "/".join(jid.path) == "/".join(path)

    @given(leaves=st.lists(paths, min_size=1, max_size=8))
    def test_text_of_every_node_of_a_built_tree(self, leaves):
        tree = tree_from_paths([("R", *leaf) for leaf in leaves])
        for node in tree.order():
            assert str(node) == "/".join(node.path)

    @given(path=paths)
    def test_repr_equality_and_hash_ignore_the_stored_text(self, path):
        jid, twin = JurisdictionId(path), JurisdictionId(path)
        object.__setattr__(twin, "_text", "something else")
        assert jid == twin and hash(jid) == hash(twin)
        assert repr(jid) == repr(twin) == f"JurisdictionId(path={path!r})"
        assert copy.copy(twin) == jid and str(copy.copy(twin)) == "/".join(path)


class TestJurisdictionTree:
    def test_basic_navigation(self):
        tree = make_canton_tree({"ZH": 2, "OW": 1})
        assert canton_id("ZH") in tree
        assert tree.parent(canton_id("ZH")) == tree.root
        assert tree.children(tree.root) == (canton_id("ZH"), canton_id("OW"))
        assert tree.parent(tree.root) is None
        assert JurisdictionId.of("CH", "XX") not in tree

    def test_cantons_keep_child_order_and_weights(self):
        tree = make_canton_tree({"ZH": 2, "OW": 1, "BE": 2})
        assert tree.cantons() == (canton_id("ZH"), canton_id("OW"), canton_id("BE"))
        assert tree.total_half_votes() == 5

    def test_leaves_of_deep_hierarchy(self):
        tree = tree_from_paths(
            [
                ("CH", "ZH", "Uster", "Station-1"),
                ("CH", "ZH", "Uster", "Station-2"),
                ("CH", "ZH", "Meilen"),
                ("CH", "OW"),
            ],
            canton_half_votes={canton_id("ZH"): 2, canton_id("OW"): 1},
        )
        assert tree.root == JurisdictionId.of("CH")
        assert tree.leaves() == (
            JurisdictionId.of("CH", "OW"),
            JurisdictionId.of("CH", "ZH", "Meilen"),
            JurisdictionId.of("CH", "ZH", "Uster", "Station-1"),
            JurisdictionId.of("CH", "ZH", "Uster", "Station-2"),
        )
        assert tree.cantons() == (canton_id("OW"), canton_id("ZH"))

    def test_rejects_second_parent(self):
        root = JurisdictionId.of("CH")
        a = JurisdictionId.of("CH", "A")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [a, a]})

    def test_rejects_child_whose_path_disagrees_with_parent(self):
        root = JurisdictionId.of("CH")
        stray = JurisdictionId.of("DE", "B")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [stray]})

    def test_rejects_unreachable_subtree(self):
        root = JurisdictionId.of("CH")
        orphan = JurisdictionId.of("CH", "A", "X")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [], orphan: []})

    def test_rejects_weight_outside_half_or_full(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 3})

    def test_rejects_weight_for_unknown_node(self):
        root = JurisdictionId.of("CH")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {}, {JurisdictionId.of("CH", "ZH"): 2})

    def test_rejects_negative_eligible_voters(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 2}, eligible={"ZH": -5})

    def test_rejects_parent_with_fewer_eligible_voters_than_children(self):
        root = JurisdictionId.of("CH")
        kids = [JurisdictionId.of("CH", "A"), JurisdictionId.of("CH", "B")]
        with pytest.raises(ValueError):
            JurisdictionTree(
                root,
                {root: kids},
                eligible_voters={root: 10, kids[0]: 6, kids[1]: 5},
            )

    def test_partial_eligible_data_skips_the_parent_check(self):
        root = JurisdictionId.of("CH")
        kids = [JurisdictionId.of("CH", "A"), JurisdictionId.of("CH", "B")]
        tree = JurisdictionTree(
            root,
            {root: kids},
            eligible_voters={root: 10, kids[0]: 9},
        )
        assert tree.eligible_voters[root] == 10


class TestTreeFromPaths:
    def test_creates_intermediate_nodes(self):
        tree = tree_from_paths([("CH", "ZH", "Uster")])
        assert JurisdictionId.of("CH", "ZH") in tree
        assert tree.children(JurisdictionId.of("CH")) == (JurisdictionId.of("CH", "ZH"),)

    def test_builds_each_node_once(self, monkeypatch):
        built = []
        check = JurisdictionId.__post_init__
        monkeypatch.setattr(
            JurisdictionId, "__post_init__", lambda self: (built.append(self), check(self))
        )
        paths = [("CH", "ZH", "Uster"), ("CH", "ZH", "Zurich"), ("CH", "BE", "Bern"), ("CH", "BE")]
        tree = tree_from_paths(paths)
        assert len(built) == len(tree.nodes()) == 6
        for parent in built:
            for child in tree.children(parent):
                assert tree.parent(child) is parent

    def test_rejects_multiple_roots(self):
        with pytest.raises(ValueError):
            tree_from_paths([("CH", "ZH"), ("DE", "BY")])


@st.composite
def shuffled_trees(draw) -> JurisdictionTree:
    """An uneven tree of 2 to 4 levels with children listed in a drawn order,
    and drawn weights on any nodes, the root included."""
    shape = tree_from_paths(draw(uneven_tree_paths()))
    # Draws follow shape.order(), never a set's hash order, so a failure
    # replays in another process.
    nodes = shape.order()
    children = {node: draw(st.permutations(shape.children(node))) for node in nodes}
    halves = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(nodes), max_size=len(nodes)))
    weights = {node: half for node, half in zip(nodes, halves) if half}
    return JurisdictionTree(shape.root, children, weights)


def descendants(tree: JurisdictionTree, node: JurisdictionId) -> set[JurisdictionId]:
    out = {node}
    for child in tree.children(node):
        out |= descendants(tree, child)
    return out


class TestTreeOrder:
    @given(tree=shuffled_trees())
    def test_order_is_depth_first_in_listed_child_order(self, tree):
        order = tree.order()
        assert order[0] == tree.root
        assert len(order) == len(set(order)) and set(order) == tree.nodes()
        index = {node: i for i, node in enumerate(order)}
        for node in order:
            if node != tree.root:
                assert index[tree.parent(node)] < index[node]
            subtree = descendants(tree, node)
            assert set(order[index[node] : index[node] + len(subtree)]) == subtree
            kids = tree.children(node)
            assert sorted(kids, key=index.__getitem__) == list(kids)

    @given(tree=shuffled_trees())
    def test_leaves_are_order_without_internal_nodes(self, tree):
        assert tree.leaves() == tuple(n for n in tree.order() if not tree.children(n))

    @given(tree=shuffled_trees())
    def test_position_is_index_among_siblings(self, tree):
        for node in tree.order()[1:]:
            assert tree.position(node) == tree.children(tree.parent(node)).index(node)

    @given(tree=shuffled_trees())
    def test_cantons_follow_order_with_weighted_root_last(self, tree):
        weighted = [n for n in tree.order() if n in tree.canton_half_votes and n != tree.root]
        if tree.root in tree.canton_half_votes:
            weighted.append(tree.root)
        assert tree.cantons() == tuple(weighted)
