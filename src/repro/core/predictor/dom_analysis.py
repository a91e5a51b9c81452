"""DOM analysis: the program-analysis half of the hybrid predictor.

The DOM analyser inspects the part of the DOM tree inside the current
viewport and accumulates the events registered on visible nodes — the
Likely-Next-Event-Set (LNES).  The event sequence learner then predicts the
next event *out of* the LNES, which tightens the prediction space.

To predict several events ahead, the analyser must know the DOM state
*after* each hypothetical event without evaluating its JavaScript callback.
It does so by consulting the Semantic Tree (built on the Accessibility
Tree), which memoises each callback's declarative effect.  Rolling a clone
of the session state forward through the memoised effects yields the
post-event LNES statically (Sec. 5.2 / 5.5).  The clone shares the read-only
DOM document and holds only its own overlay (viewport and display
overrides), so each hypothetical step costs O(overrides), not O(nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictor.features import EventLabelEncoder
from repro.traces.session_state import SessionState
from repro.webapp.dom import DomNode
from repro.webapp.events import EventType


@dataclass
class DomAnalyzer:
    """Computes the LNES and rolls session state forward through predictions."""

    encoder: EventLabelEncoder

    def likely_next_events(self, state: SessionState) -> set[EventType]:
        """The Likely-Next-Event-Set for the current DOM state."""
        return state.available_events()

    def lnes_mask(self, state: SessionState) -> np.ndarray:
        """Boolean class mask restricting the learner to the LNES.

        If the analysis yields an empty set (e.g. a degenerate document) the
        mask is all-true, i.e. the analysis gracefully degrades to the pure
        statistical predictor.
        """
        lnes = self.likely_next_events(state)
        if not lnes:
            return np.ones(self.encoder.n_classes, dtype=bool)
        mask = np.zeros(self.encoder.n_classes, dtype=bool)
        for event_type in lnes:
            mask[self.encoder.encode(event_type)] = True
        return mask

    def representative_target(self, state: SessionState, event_type: EventType) -> DomNode | None:
        """Pick the node a predicted event of ``event_type`` would land on.

        The choice only matters for rolling the DOM state forward (menu
        toggles change visibility, navigating taps lead to a load), so the
        analyser prefers targets whose Semantic-Tree effect is known, and
        among those prefers non-navigating ones — predicting a navigation is
        only justified when no in-page target exists.
        """
        root = state.dom.root
        if event_type in (EventType.SCROLL, EventType.TOUCHMOVE, EventType.LOAD):
            return root

        candidates = [
            node
            for node in state.dom.visible_nodes()
            if event_type in node.listeners and node is not root
        ]
        if not candidates:
            return None

        with_effect = [n for n in candidates if state.semantic.has_effect(n.node_id, event_type)]
        non_navigating = [
            n
            for n in with_effect
            if not state.semantic.effect_of(n.node_id, event_type).navigates
        ]
        if non_navigating:
            return non_navigating[0]
        plain = [n for n in candidates if n not in with_effect]
        if plain:
            return plain[0]
        return candidates[0]

    def roll_forward(self, state: SessionState, event_type: EventType) -> SessionState:
        """Return a cloned state after hypothetically applying ``event_type``."""
        hypothetical = state.clone()
        target = self.representative_target(hypothetical, event_type)
        node_id = target.node_id if target is not None else hypothetical.dom.root.node_id
        hypothetical.apply_event(event_type, node_id)
        return hypothetical
