"""DOM documents with event listeners, shared read-only behind per-session overlays.

The predictor's program analysis (Sec. 5.2) walks the part of the DOM tree
that is inside the current viewport and collects the events registered on
visible nodes — the Likely-Next-Event-Set (LNES).  The model here captures
exactly what that analysis needs: a tree of nodes, each with a bounding box,
a set of registered event listeners, and a base display style.

**Shared-document contract.**  A document's nodes are read-only once they
are wrapped in a :class:`DomTree` (``AppProfile.build_dom`` returns them that
way).  Everything a session changes lives in the tree's *overlay*: its own
viewport and a map from node id to display override.  Any number of
sessions and speculative clones can therefore share one document, and
cloning a tree copies only its overlay.  Node ids are unique within a
document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.webapp.events import EventType


@dataclass(frozen=True)
class Viewport:
    """The visible region of the page in CSS pixels."""

    width: float = 360.0
    height: float = 640.0
    scroll_y: float = 0.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport dimensions must be positive")
        if self.scroll_y < 0:
            raise ValueError("scroll offset must be non-negative")

    def scrolled(self, delta_y: float) -> "Viewport":
        return Viewport(self.width, self.height, max(0.0, self.scroll_y + delta_y))

    @property
    def top(self) -> float:
        return self.scroll_y

    @property
    def bottom(self) -> float:
        return self.scroll_y + self.height

    def intersects(self, y: float, height: float) -> bool:
        """Whether a box spanning [y, y+height) in page coordinates is visible."""
        return y < self.bottom and (y + height) > self.top

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(slots=True)
class DomNode:
    """One element of a DOM document.

    Geometry is simplified to a vertical extent (``y``/``height``) plus a
    width, which is all the viewport-intersection analysis needs, and an
    ``area`` for the clickable-region feature.  ``display`` is the node's
    *base* style in the document; a session's display changes live in its
    :class:`DomTree` overlay.
    """

    tag: str
    node_id: str
    y: float = 0.0
    height: float = 20.0
    width: float = 360.0
    display: str = "block"
    listeners: set[EventType] = field(default_factory=set)
    is_link: bool = False
    children: list["DomNode"] = field(default_factory=list)
    parent: "DomNode | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.height < 0 or self.width < 0:
            raise ValueError("node dimensions must be non-negative")

    # -- tree construction -------------------------------------------------

    def append_child(self, child: "DomNode") -> "DomNode":
        child.parent = self
        self.children.append(child)
        return child

    # -- queries -----------------------------------------------------------

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def is_clickable(self) -> bool:
        return bool(self.listeners & {EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT})

    def walk(self) -> Iterator["DomNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class VisibilitySummary:
    """Everything the visibility queries need, from one pass over a document.

    ``nodes`` are the visible nodes in document (pre-order) order, and
    ``clickable_area`` sums their clickable areas in that order.
    """

    nodes: tuple[DomNode, ...]
    clickable_area: float
    link_count: int
    listeners: frozenset[EventType]


def _displayed(root: DomNode, overrides: dict[str, str]) -> Iterator[DomNode]:
    """Pre-order walk that prunes ``display: none`` subtrees."""
    stack = [root]
    while stack:
        node = stack.pop()
        if overrides.get(node.node_id, node.display) != "none":
            yield node
            stack.extend(reversed(node.children))


def _summarise(root: DomNode, viewport: Viewport, overrides: dict[str, str]) -> VisibilitySummary:
    # Geometry never prunes: a child's box need not lie inside its parent's.
    nodes = tuple(n for n in _displayed(root, overrides) if viewport.intersects(n.y, n.height))
    listeners: set[EventType] = set()
    for node in nodes:
        listeners |= node.listeners
    return VisibilitySummary(
        nodes=nodes,
        clickable_area=sum(n.area for n in nodes if n.is_clickable),
        link_count=sum(1 for n in nodes if n.is_link),
        listeners=frozenset(listeners),
    )


@dataclass(eq=False)
class _Document:
    """The shared, read-only part of a :class:`DomTree`: the nodes plus the
    memo of visibility passes, keyed by ``(viewport, frozenset(overrides))``.
    """

    root: DomNode
    page_height: float | None
    summaries: dict[tuple, VisibilitySummary] = field(default_factory=dict)


class DomTree:
    """A shared DOM document plus one session's overlay on it.

    The overlay is the page viewport and a display-override map (node id →
    display); an override equal to the node's base display is dropped, so
    equal states have equal overlays.  The aggregate queries the predictor
    features (Table 1) and the DOM analysis need — visible nodes,
    clickable-region percentage, visible-link percentage, and the events
    registered on visible nodes — all read one memoised visibility pass.
    """

    _id_counter = itertools.count()

    def __init__(self, root: DomNode, viewport: Viewport | None = None, page_height: float | None = None):
        self._document = _Document(root, page_height)
        self._viewport = viewport or Viewport()
        self._overrides: dict[str, str] = {}
        self._summary: VisibilitySummary | None = None

    # -- factory helpers ---------------------------------------------------

    @classmethod
    def new_node(cls, tag: str, **kwargs) -> DomNode:
        """Create a node with an auto-assigned unique id."""
        node_id = kwargs.pop("node_id", f"{tag}-{next(cls._id_counter)}")
        return DomNode(tag=tag, node_id=node_id, **kwargs)

    # -- traversal ---------------------------------------------------------

    @property
    def root(self) -> DomNode:
        return self._document.root

    @property
    def viewport(self) -> Viewport:
        return self._viewport

    def walk(self) -> Iterator[DomNode]:
        return self.root.walk()

    def visibility(self) -> VisibilitySummary:
        """The memoised visibility pass for this tree's current overlay."""
        if self._summary is None:
            memo = self._document.summaries
            key = (self._viewport, frozenset(self._overrides.items()))
            if key not in memo:
                memo[key] = _summarise(self.root, self._viewport, self._overrides)
            self._summary = memo[key]
        return self._summary

    def visible_nodes(self) -> Iterator[DomNode]:
        return iter(self.visibility().nodes)

    def find(self, node_id: str) -> DomNode:
        for node in self.walk():
            if node.node_id == node_id:
                return node
        raise KeyError(f"no DOM node with id {node_id!r}")

    def find_all(self, predicate: Callable[[DomNode], bool]) -> list[DomNode]:
        return [node for node in self.walk() if predicate(node)]

    def display_of(self, node_id: str) -> str:
        """The node's own display in this tree (overlay over base style)."""
        return self._overrides.get(node_id, self.find(node_id).display)

    def is_displayed(self, node_id: str) -> bool:
        """Whether the node and all its ancestors have a non-``none`` display."""
        target = self.find(node_id)
        return any(node is target for node in _displayed(self.root, self._overrides))

    # -- aggregate features (Table 1, application-inherent) -----------------

    def clickable_region_fraction(self) -> float:
        """Fraction of the viewport area covered by visible clickable nodes."""
        return min(1.0, self.visibility().clickable_area / self.viewport.area)

    def visible_link_fraction(self) -> float:
        """Fraction of visible nodes that are hyperlinks."""
        summary = self.visibility()
        if not summary.nodes:
            return 0.0
        return summary.link_count / len(summary.nodes)

    def visible_event_types(self) -> set[EventType]:
        """Events registered on nodes inside the viewport (LNES ingredient)."""
        return set(self.visibility().listeners)

    def clone(self) -> "DomTree":
        """Independent overlay on the same shared document."""
        copy = DomTree.__new__(DomTree)
        copy._document = self._document
        copy._viewport = self._viewport
        copy._overrides = dict(self._overrides)
        copy._summary = self._summary
        return copy

    # -- overlay mutation --------------------------------------------------

    def set_display(self, node_id: str, display: str) -> None:
        """Override the node's display in this tree only."""
        if display == self.find(node_id).display:
            self._overrides.pop(node_id, None)
        else:
            self._overrides[node_id] = display
        self._summary = None

    def toggle_display(self, node_id: str) -> None:
        """Flip between ``block`` and ``none`` (the Fig. 7 collapsible menu)."""
        self.set_display(node_id, "none" if self.display_of(node_id) == "block" else "block")

    def scroll(self, delta_y: float) -> None:
        """Scroll the viewport, clamped to the page height when known."""
        viewport = self._viewport.scrolled(delta_y)
        if self._document.page_height is not None:
            max_scroll = max(0.0, self._document.page_height - viewport.height)
            viewport = Viewport(viewport.width, viewport.height, min(viewport.scroll_y, max_scroll))
        self._viewport = viewport
        self._summary = None

    @property
    def page_height(self) -> float:
        if self._document.page_height is not None:
            return self._document.page_height
        return max((n.y + n.height for n in self.walk()), default=self.viewport.height)
