"""Interaction session state: DOM evolution plus the Table-1 feature window.

Both the trace generator (which synthesises user behaviour) and the PES
predictor (which observes it) need the same view of an ongoing session:

* the current DOM tree, updated by applying each event's Semantic-Tree
  effect (scrolls move the viewport, menu toggles reveal nodes, navigations
  load a fresh document).  Documents are built once per
  ``(profile, doc_index)`` and shared read-only by every session; a session
  owns only its overlay (viewport and display overrides, see
  :mod:`repro.webapp.dom`), and
* a sliding window over the five most recent events, from which the
  interaction-dependent features of Table 1 are computed.

Keeping this in the traces layer lets the predictor consume exactly the
same feature definitions the behaviour model is driven by, without the
substrate depending on the core library.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.utils import stable_seed
from repro.webapp.apps import AppProfile
from repro.webapp.dom import DomTree
from repro.webapp.events import EventType, Interaction, interaction_of, POINTER_EVENT_TYPES
from repro.webapp.semantic_tree import SemanticTree

#: Number of recent events considered by the interaction-dependent features.
FEATURE_WINDOW: int = 5

#: Names of the features, in vector order (Table 1).
FEATURE_NAMES: tuple[str, ...] = (
    "clickable_region_fraction",
    "visible_link_fraction",
    "distance_to_previous_click",
    "navigations_in_window",
    "scrolls_in_window",
)


@dataclass(frozen=True)
class ObservedEvent:
    """The slice of an event the feature window needs to remember."""

    event_type: EventType
    navigated: bool
    node_id: str = ""


def document_rng(profile: AppProfile, doc_index: int) -> np.random.Generator:
    """Deterministic RNG for the ``doc_index``-th document of an application.

    Both the trace generator and the PES predictor rebuild the DOM when a
    navigation happens.  Deriving the layout RNG from the application name
    and a document counter guarantees that the two sides observe the same
    sequence of documents, which is what a shared real page would give them.
    """
    return np.random.default_rng(stable_seed(profile.name, doc_index))


@functools.lru_cache(maxsize=1024)
def _built_document(profile: AppProfile, doc_index: int) -> tuple[DomTree, SemanticTree]:
    # Keyed on the true inputs: ``build_dom`` is a pure function of
    # ``document_rng(profile, doc_index)``, and ``AppProfile`` is frozen.
    return profile.build_dom(document_rng(profile, doc_index))


def shared_document(profile: AppProfile, doc_index: int) -> tuple[DomTree, SemanticTree]:
    """A fresh overlay on the ``doc_index``-th document of ``profile``.

    The document is built once and shared read-only: every caller gets its
    own :class:`DomTree` overlay on the same nodes, plus the shared
    Semantic Tree.
    """
    tree, semantic = _built_document(profile, doc_index)
    return tree.clone(), semantic


@dataclass
class SessionState:
    """Evolving DOM + recent-event window for one interaction session."""

    profile: AppProfile
    dom: DomTree
    semantic: SemanticTree
    doc_index: int = 0
    history: deque[ObservedEvent] = field(default_factory=lambda: deque(maxlen=FEATURE_WINDOW))
    last_navigated: bool = False

    @classmethod
    def fresh(cls, profile: AppProfile) -> "SessionState":
        """Start a new session on the application's first document."""
        dom, semantic = shared_document(profile, 0)
        return cls(profile=profile, dom=dom, semantic=semantic, doc_index=0)

    # -- features (Table 1) --------------------------------------------------

    def features(self) -> np.ndarray:
        """The five-element feature vector, each component normalised to [0, 1]."""
        clickable = self.dom.clickable_region_fraction()
        links = self.dom.visible_link_fraction()

        distance_to_click = float(FEATURE_WINDOW)
        for distance, observed in enumerate(reversed(self.history), start=1):
            if interaction_of(observed.event_type) is Interaction.TAP:
                distance_to_click = float(distance)
                break

        navigations = sum(1 for o in self.history if o.navigated)
        scrolls = sum(
            1 for o in self.history if interaction_of(o.event_type) is Interaction.MOVE
        )

        return np.array(
            [
                clickable,
                links,
                distance_to_click / FEATURE_WINDOW,
                navigations / FEATURE_WINDOW,
                scrolls / FEATURE_WINDOW,
            ],
            dtype=float,
        )

    # -- DOM-derived candidate events (LNES ingredient) ------------------------

    def available_events(self) -> set[EventType]:
        """Events that the current DOM state allows the user to trigger next.

        After a navigation the only possible next event is the ``load`` of
        the new document; otherwise the candidates are the pointer events
        registered on visible nodes (plus scrolling, which the document root
        always supports).
        """
        if self.last_navigated:
            return {EventType.LOAD}
        visible = self.dom.visible_event_types()
        return {e for e in visible if e in POINTER_EVENT_TYPES}

    # -- state evolution -------------------------------------------------------

    def apply_event(self, event_type: EventType, node_id: str, navigates: bool | None = None) -> bool:
        """Apply one event to the session state.

        Returns whether the event navigated.  When ``navigates`` is given it
        overrides the Semantic-Tree effect (used when replaying recorded
        traces whose ground-truth effect is stored on the event).
        """
        effect = self.semantic.effect_of(node_id, event_type)
        did_navigate = effect.navigates if navigates is None else navigates

        if event_type is EventType.LOAD:
            # The load event of the new document switches to its shared DOM.
            self.doc_index += 1
            self.dom, self.semantic = shared_document(self.profile, self.doc_index)
            self.last_navigated = False
        elif did_navigate:
            # A navigating tap tears down the document; only the subsequent
            # load event produces the new one.
            self.last_navigated = True
        else:
            effect.apply(self.dom)
            self.last_navigated = False

        self.history.append(ObservedEvent(event_type=event_type, navigated=did_navigate, node_id=node_id))
        return did_navigate

    def reset_document(self) -> None:
        """Force a fresh document (used at session start)."""
        self.doc_index = 0
        self.dom, self.semantic = shared_document(self.profile, 0)
        self.last_navigated = False
        self.history.clear()

    def clone(self) -> "SessionState":
        """Structured copy used for hypothetical roll-forward during prediction.

        Everything read-only is shared: the frozen :class:`AppProfile`, the
        DOM document and its Semantic Tree, and the frozen ``ObservedEvent``
        history entries.  Only the DOM overlay (viewport and display
        overrides) and the history window get fresh containers, so a clone
        costs O(overrides), not O(nodes).
        """
        return SessionState(
            profile=self.profile,
            dom=self.dom.clone(),
            semantic=self.semantic,
            doc_index=self.doc_index,
            history=deque(self.history, maxlen=FEATURE_WINDOW),
            last_navigated=self.last_navigated,
        )
