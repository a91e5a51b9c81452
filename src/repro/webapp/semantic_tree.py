"""Semantic Tree: memoised callback effects for static DOM-state analysis.

The challenge addressed in Sec. 5.2/5.5 of the paper is that an event's
callback may mutate the visible DOM (e.g. clicking a button expands a menu),
which changes the Likely-Next-Event-Set of the *following* event.  Fully
evaluating callbacks would defeat the purpose of scheduling several events
ahead, so the paper piggybacks on the Accessibility Tree: during parsing it
memoises, for each interactive node, which other nodes its callback toggles.
The DOM analyser can then *statically* derive the post-callback DOM state.

:class:`SemanticTree` is that memoisation: a mapping from (node, event type)
to a declarative :class:`CallbackEffect` describing the DOM mutation, which
can be applied to a tree's overlay without running any JavaScript.  Like the
document it describes, a Semantic Tree is read-only once built, so every
session on the document shares it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.webapp.dom import DomTree
from repro.webapp.events import EventType


class EffectKind(enum.Enum):
    """The kinds of DOM mutations the Semantic Tree can describe."""

    NONE = "none"
    TOGGLE_DISPLAY = "toggle_display"
    SHOW = "show"
    HIDE = "hide"
    SCROLL_BY = "scroll_by"
    NAVIGATE = "navigate"


@dataclass(frozen=True)
class CallbackEffect:
    """Declarative description of what an event callback does to the DOM.

    ``target_node_ids`` lists the nodes whose display is affected;
    ``scroll_delta_y`` is used by scroll/move effects; ``navigates`` marks
    callbacks that replace the whole document (page navigation).
    """

    kind: EffectKind = EffectKind.NONE
    target_node_ids: tuple[str, ...] = ()
    scroll_delta_y: float = 0.0
    navigates: bool = False

    def apply(self, tree: DomTree) -> None:
        """Apply this effect to ``tree``'s overlay (static re-evaluation).

        Display changes go through the tree's overlay, never into the shared
        document's nodes.
        """
        if self.kind is EffectKind.NONE:
            return
        if self.kind is EffectKind.SCROLL_BY:
            tree.scroll(self.scroll_delta_y)
            return
        if self.kind is EffectKind.NAVIGATE:
            # Navigation resets the scroll position; the new document is
            # modelled by the application profile regenerating its DOM.
            tree.scroll(-tree.viewport.scroll_y)
            return
        for node_id in self.target_node_ids:
            if self.kind is EffectKind.TOGGLE_DISPLAY:
                tree.toggle_display(node_id)
            elif self.kind is EffectKind.SHOW:
                tree.set_display(node_id, "block")
            elif self.kind is EffectKind.HIDE:
                tree.set_display(node_id, "none")


#: The shared no-op effect ``effect_of`` returns for unregistered callbacks.
_NO_EFFECT = CallbackEffect()


@dataclass
class SemanticTree:
    """Accessibility-Tree-backed memoisation of callback effects.

    Keys are ``(node_id, event_type)`` pairs.  ``effect_of`` returns a no-op
    effect when nothing is registered, mirroring callbacks whose effects the
    analysis cannot (or need not) model.
    """

    effects: dict[tuple[str, EventType], CallbackEffect] = field(default_factory=dict)

    def register(self, node_id: str, event_type: EventType, effect: CallbackEffect) -> None:
        self.effects[(node_id, event_type)] = effect

    def effect_of(self, node_id: str, event_type: EventType) -> CallbackEffect:
        return self.effects.get((node_id, event_type), _NO_EFFECT)

    def has_effect(self, node_id: str, event_type: EventType) -> bool:
        return (node_id, event_type) in self.effects

    def __len__(self) -> int:
        return len(self.effects)
