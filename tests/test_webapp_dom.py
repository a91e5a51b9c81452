"""Unit tests for the DOM tree model and viewport queries."""

import pytest

from repro.webapp.dom import DomNode, DomTree, Viewport
from repro.webapp.events import EventType


def build_tree() -> DomTree:
    root = DomNode(tag="body", node_id="body", y=0, height=2000, width=360)
    root.listeners.add(EventType.SCROLL)
    button = root.append_child(
        DomNode(
            tag="button",
            node_id="btn",
            y=100,
            height=50,
            width=200,
            listeners={EventType.CLICK},
        )
    )
    hidden = root.append_child(
        DomNode(tag="div", node_id="menu", y=160, height=100, width=360, display="none")
    )
    hidden.append_child(
        DomNode(tag="a", node_id="menu-item", y=160, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    root.append_child(
        DomNode(tag="a", node_id="deep-link", y=1500, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    assert button.parent is root
    return DomTree(root=root, viewport=Viewport(width=360, height=640), page_height=2000)


class TestViewport:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Viewport(width=0, height=100)
        with pytest.raises(ValueError):
            Viewport(width=100, height=100, scroll_y=-1)

    def test_scrolled_clamps_at_zero(self):
        viewport = Viewport(scroll_y=100)
        assert viewport.scrolled(-500).scroll_y == 0.0

    def test_intersects(self):
        viewport = Viewport(width=360, height=640, scroll_y=100)
        assert viewport.intersects(y=700, height=50)
        assert not viewport.intersects(y=741, height=50)
        assert not viewport.intersects(y=0, height=99)


class TestDomTree:
    def test_walk_visits_all_nodes(self):
        tree = build_tree()
        assert len(list(tree.walk())) == 5

    def test_find_by_id(self):
        tree = build_tree()
        assert tree.find("btn").tag == "button"
        with pytest.raises(KeyError):
            tree.find("nope")

    def test_display_none_subtree_is_not_displayed(self):
        tree = build_tree()
        assert not tree.is_displayed("menu-item")
        tree.set_display("menu", "block")
        assert tree.is_displayed("menu-item")

    def test_visibility_respects_viewport(self):
        tree = build_tree()
        visible_ids = {n.node_id for n in tree.visible_nodes()}
        assert "btn" in visible_ids
        assert "deep-link" not in visible_ids

    def test_scroll_brings_deep_content_into_view(self):
        tree = build_tree()
        tree.scroll(1200)
        visible_ids = {n.node_id for n in tree.visible_nodes()}
        assert "deep-link" in visible_ids

    def test_scroll_clamps_to_page_height(self):
        tree = build_tree()
        tree.scroll(10_000)
        assert tree.viewport.scroll_y == pytest.approx(2000 - 640)

    def test_visible_event_types_excludes_hidden_listeners(self):
        tree = build_tree()
        events = tree.visible_event_types()
        assert EventType.CLICK in events
        assert EventType.SCROLL in events

    def test_clickable_region_fraction_bounds(self):
        tree = build_tree()
        fraction = tree.clickable_region_fraction()
        assert 0.0 < fraction <= 1.0

    def test_clickable_region_grows_when_menu_expands(self):
        tree = build_tree()
        before = tree.clickable_region_fraction()
        tree.set_display("menu", "block")
        assert tree.clickable_region_fraction() > before

    def test_visible_link_fraction(self):
        tree = build_tree()
        assert tree.visible_link_fraction() == pytest.approx(0.0)
        tree.set_display("menu", "block")
        assert tree.visible_link_fraction() > 0.0

    def test_toggle_display_flips(self):
        tree = build_tree()
        tree.toggle_display("menu")
        assert tree.display_of("menu") == "block"
        tree.toggle_display("menu")
        assert tree.display_of("menu") == "none"

    def test_find_all_predicate(self):
        tree = build_tree()
        links = tree.find_all(lambda n: n.is_link)
        assert {n.node_id for n in links} == {"menu-item", "deep-link"}

    def test_new_node_assigns_unique_ids(self):
        a = DomTree.new_node("div")
        b = DomTree.new_node("div")
        assert a.node_id != b.node_id

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            DomNode(tag="div", node_id="x", height=-1)
