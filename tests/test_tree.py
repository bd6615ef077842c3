"""Jurisdiction identifiers and tree validation."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import canton_id, make_canton_tree, shuffled_tree_paths, uneven_tree_paths
from votewire.tree import JurisdictionId, JurisdictionTree, tree_from_paths


class TestJurisdictionId:
    def test_round_trips_through_text(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert str(jid) == "CH/ZH/Uster"
        assert JurisdictionId.from_text("CH/ZH/Uster") == jid

    def test_parent_and_name(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert jid.name == "Uster"
        assert jid.parent == JurisdictionId.of("CH", "ZH")
        assert jid.parent.parent.parent is None

    @pytest.mark.parametrize("segment", ["a/b", "a\nb", ""])
    def test_rejects_unrepresentable_segments(self, segment):
        with pytest.raises(ValueError):
            JurisdictionId.of("CH", segment)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            JurisdictionId(())

    def test_rejects_a_str_path(self):
        # A str is a sequence of its characters, so "CH" would read as C/H.
        with pytest.raises(ValueError, match="^jurisdiction path 'CH' is a str, not a sequence"):
            JurisdictionId("CH")
        assert JurisdictionId.from_text("CH") == JurisdictionId.of("CH")

    def test_equal_ids_compare_and_hash_equal(self):
        jid = JurisdictionId.of("CH", "ZH")
        twin = JurisdictionId(("CH", "ZH"))
        assert jid is not twin
        assert jid == twin and hash(jid) == hash(twin)
        assert jid == JurisdictionId.from_text("CH/ZH") == JurisdictionId.of("CH", "ZH", "x").parent
        assert jid != JurisdictionId.of("CH", "BE")
        assert repr(jid) == "JurisdictionId(path=('CH', 'ZH'))"
        assert {jid: 1}[twin] == 1

    def test_never_equals_its_path_or_its_text(self):
        jid = JurisdictionId.of("CH", "ZH")
        assert jid != ("CH", "ZH") and jid != "CH/ZH"
        assert ("CH", "ZH") not in {jid} and "CH/ZH" not in {jid}

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

    @pytest.mark.parametrize(
        "operation",
        [lambda j: j + j, lambda j: j + ("x",), lambda j: ("x",) + j, lambda j: j * 2, lambda j: 2 * j],
        ids=["id + id", "id + tuple", "tuple + id", "id * 2", "2 * id"],
    )
    def test_plus_and_times_raise_instead_of_concatenating(self, operation):
        with pytest.raises(TypeError, match="JurisdictionId does not support"):
            operation(JurisdictionId.of("CH", "ZH"))

    def test_equality_and_hash_stay_the_tuple_s(self):
        assert JurisdictionId.__eq__ is tuple.__eq__ and JurisdictionId.__hash__ is tuple.__hash__


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
        # The text is derived from the path at construction and cannot be set.
        for attribute in ("_text", "path"):
            with pytest.raises(AttributeError):
                setattr(twin, attribute, "something else")
            with pytest.raises(AttributeError):
                object.__setattr__(twin, attribute, "something else")
        assert jid == twin and hash(jid) == hash(twin) and str(twin) == "/".join(path)
        assert repr(jid) == repr(twin) == f"JurisdictionId(path={path!r})"
        assert copy.copy(twin) == jid and str(copy.copy(twin)) == "/".join(path)


class TestJurisdictionTree:
    def test_basic_navigation(self):
        tree = make_canton_tree({"ZH": 2, "OW": 1})
        assert canton_id("ZH") in tree
        assert tree.children(tree.root) == (canton_id("ZH"), canton_id("OW"))
        assert tree.children(canton_id("ZH")) == ()
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

    def test_rejects_weight_outside_half_or_full(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 3})

    def test_rejects_weight_for_unknown_node(self):
        with pytest.raises(ValueError) as exc:
            JurisdictionTree([("CH",)], {JurisdictionId.of("CH", "ZH"): 2})
        assert str(exc.value) == "weighted canton CH/ZH is not in the tree"

    def test_rejects_eligible_voters_for_unknown_node(self):
        with pytest.raises(ValueError) as exc:
            JurisdictionTree([("CH", "A")], eligible_voters={JurisdictionId.of("CH", "B"): 5})
        assert str(exc.value) == "eligible-voter entry CH/B is not in the tree"

    def test_rejects_negative_eligible_voters(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 2}, eligible={"ZH": -5})

    def test_rejects_parent_with_fewer_eligible_voters_than_children(self):
        root, a, b = (JurisdictionId.of(*p) for p in [("CH",), ("CH", "A"), ("CH", "B")])
        with pytest.raises(ValueError) as exc:
            JurisdictionTree([a.path, b.path], eligible_voters={root: 10, a: 6, b: 5})
        assert str(exc.value) == (
            "eligible voters of CH (10) is less than the sum over its children (11)"
        )

    def test_partial_eligible_data_skips_the_parent_check(self):
        root, a = JurisdictionId.of("CH"), JurisdictionId.of("CH", "A")
        tree = JurisdictionTree([a.path, ("CH", "B")], eligible_voters={root: 10, a: 9})
        assert tree.eligible_voters[root] == 10

    @pytest.mark.parametrize("paths", [[(), ("CH", "A")], [("CH", "A"), []]], ids=["first", "last"])
    def test_rejects_an_empty_path(self, paths):
        # An empty path names no node; it is refused, not dropped.
        for build in (JurisdictionTree, tree_from_paths):
            with pytest.raises(ValueError, match="^jurisdiction path must be nonempty$"):
                build(paths)

    @pytest.mark.parametrize("bad", ["", "x/y"])
    def test_of_two_bad_paths_the_first_listed_raises(self, bad):
        # The walk reaches CH/A's subtree before CH/B's, but the paths are
        # checked in the order they are listed; tree_from_paths lists them
        # sorted, so CH/A's comes first there.
        other = "x/y" if bad == "" else ""
        paths = [("CH", "A"), ("CH", "B", bad), ("CH", "A", other)]
        messages = {
            "": "^jurisdiction path segments must be nonempty$",
            "x/y": "^segment 'x/y' contains forbidden character '/'$",
        }
        with pytest.raises(ValueError, match=messages[bad]):
            JurisdictionTree(paths)
        with pytest.raises(ValueError, match=messages[other]):
            tree_from_paths(paths)

    def test_of_two_parents_short_of_voters_the_first_to_gain_a_child_is_named(self):
        # CH/D gains its first child before CH/B, which the walk reaches first.
        paths = [("CH", "B"), ("CH", "D", "E"), ("CH", "B", "F")]
        b, d, e, f = (JurisdictionId(p) for p in (paths[0], paths[1][:2], paths[1], paths[2]))
        with pytest.raises(ValueError) as exc:
            JurisdictionTree(paths, eligible_voters={b: 1, d: 1, e: 2, f: 2})
        assert str(exc.value) == (
            "eligible voters of CH/D (1) is less than the sum over its children (2)"
        )

    @pytest.mark.parametrize("build", [JurisdictionTree, tree_from_paths])
    @pytest.mark.parametrize(
        "paths, named", [(["CH", "CZ"], "CH"), ([("CH", "A"), "CH/B"], "CH/B")], ids=["all", "one"]
    )
    def test_rejects_a_str_path(self, build, paths, named):
        # Read as its characters, ["CH", "CZ"] would build C, C/H and C/Z.
        with pytest.raises(ValueError) as exc:
            build(paths)
        assert str(exc.value) == f"jurisdiction path {named!r} is a str, not a sequence of segments"

    def test_root_cannot_be_reassigned(self):
        # A run and its audit both read the root from the tree, so a root
        # moved after the run would send the audit to children it never had.
        tree = tree_from_paths([("CH", "A"), ("CH", "B")])
        with pytest.raises(AttributeError):
            tree.root = JurisdictionId.of("CH", "A")
        assert tree.root is tree.order()[0] == JurisdictionId.of("CH")

    def test_tables_are_read_only_copies(self):
        # A run reads these tables, so an edit after construction would
        # skip the checks above and reach the run and its trace.
        a, b = JurisdictionId.of("CH", "A"), JurisdictionId.of("CH", "B")
        weights, voters = {a: 2, b: 2}, {a: 100, b: 100}
        tree = tree_from_paths([a.path, b.path], weights, voters)
        with pytest.raises(TypeError):
            tree.eligible_voters[a] = 10
        with pytest.raises(TypeError):
            tree.canton_half_votes[b] = 7
        weights[b], voters[a] = 7, 10
        assert (tree.canton_half_votes[b], tree.eligible_voters[a]) == (2, 100)


class TestTreeFromPaths:
    def test_creates_intermediate_nodes(self):
        tree = tree_from_paths([("CH", "ZH", "Uster")])
        assert JurisdictionId.of("CH", "ZH") in tree
        assert tree.children(JurisdictionId.of("CH")) == (JurisdictionId.of("CH", "ZH"),)

    def test_builds_each_node_once(self, monkeypatch):
        built = []
        new = JurisdictionId.__new__

        def counting_new(cls, path):
            built.append(new(cls, path))
            return built[-1]

        monkeypatch.setattr(JurisdictionId, "__new__", staticmethod(counting_new))
        paths = [("CH", "ZH", "Uster"), ("CH", "ZH", "Zurich"), ("CH", "BE", "Bern"), ("CH", "BE")]
        tree = tree_from_paths(paths)
        assert len(built) == 6
        # Every node the tree hands out, as a child or in order(), is one of those built.
        assert {id(node) for node in tree.order()} == {id(node) for node in built}

    def test_rejects_multiple_roots(self):
        with pytest.raises(ValueError):
            tree_from_paths([("CH", "ZH"), ("DE", "BY")])


def first_named_children(paths: list[tuple[str, ...]]) -> dict[tuple[str, ...], list[str]]:
    """Each internal node's child names, in the order ``paths`` first name them."""
    named: dict[tuple[str, ...], dict[str, None]] = {}
    for path in paths:
        for end in range(1, len(path)):
            named.setdefault(path[:end], {})[path[end]] = None
    return {parent: list(kids) for parent, kids in named.items()}


class TestBuiltFromPaths:
    @given(data=st.data(), paths=uneven_tree_paths())
    def test_any_listing_gives_the_sorted_tree_and_its_own_child_order(self, data, paths):
        listed = data.draw(st.permutations(paths))
        # One fresh object per node, none of them built by the tree.
        ids = {path: JurisdictionId(path) for path in first_named_children(paths)}
        ids.update((path, JurisdictionId(path)) for path in paths)
        halves = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(ids), max_size=len(ids)))
        weights = {node: half for node, half in zip(ids.values(), halves) if half}
        # Ten times a node's voters at its parent: no child sum exceeds it.
        voters = {node: 10 ** (5 - len(path)) for path, node in ids.items()}

        sorted_tree = JurisdictionTree(sorted(paths))
        shuffled = tree_from_paths(listed)
        assert shuffled.order() == sorted_tree.order()
        assert shuffled.parents() == sorted_tree.parents()

        tree = JurisdictionTree(listed, weights, voters)
        for parent, names in first_named_children(listed).items():
            assert [kid.name for kid in tree.children(ids[parent])] == names
        own = {node: node for node in tree.order()}
        assert all(own[key] is key for table in (weights, voters) for key in table)


@st.composite
def shuffled_trees(draw) -> JurisdictionTree:
    """An uneven tree of 2 to 4 levels with children listed in a drawn order,
    and drawn weights on any nodes, the root included."""
    paths = draw(shuffled_tree_paths())
    nodes = dict.fromkeys(path[:end] for path in paths for end in range(1, len(path) + 1))
    halves = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(nodes), max_size=len(nodes)))
    weights = {JurisdictionId(node): half for node, half in zip(nodes, halves) if half}
    return JurisdictionTree(paths, weights)


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
        assert len(order) == len(set(order))
        assert all(node in tree for node in order)
        index = {node: i for i, node in enumerate(order)}
        for node in order:
            if node != tree.root:
                assert index[node.parent] < index[node]
            subtree = descendants(tree, node)
            assert set(order[index[node] : index[node] + len(subtree)]) == subtree
            kids = tree.children(node)
            assert sorted(kids, key=index.__getitem__) == list(kids)

    @given(tree=shuffled_trees())
    def test_parents_name_each_nodes_parent(self, tree):
        # The root's entry is 0; every other names its parent's index.
        order, parents = tree.order(), tree.parents()
        assert len(parents) == len(order) and parents[0] == 0
        for i in range(1, len(order)):
            assert order[parents[i]] == order[i].parent

    @given(tree=shuffled_trees())
    def test_leaves_are_order_without_internal_nodes(self, tree):
        assert tree.leaves() == tuple(n for n in tree.order() if not tree.children(n))

    @given(tree=shuffled_trees())
    def test_cantons_follow_order_with_weighted_root_last(self, tree):
        weighted = [n for n in tree.order() if n in tree.canton_half_votes and n != tree.root]
        if tree.root in tree.canton_half_votes:
            weighted.append(tree.root)
        assert tree.cantons() == tuple(weighted)
