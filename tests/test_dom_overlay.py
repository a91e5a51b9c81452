"""Shared read-only DOM documents behind per-session overlays.

A session's DOM is a document shared by every session on the same
``(profile, doc_index)`` plus its own overlay (viewport and display
overrides), and every visibility query reads one memoised pass.  These tests
prove that refactor at event granularity against a reference model kept
here: a privately built tree per session, mutated in place, with a naive
walk that climbs ancestors to decide whether a node is displayed — the
pre-overlay semantics.

* **Differential property** — for random apps, trace seeds and event
  sequences (scrolls, menu toggles, SHOW/HIDE, navigating taps, loads,
  replayed ``navigates`` overrides, resets) applied to sessions and to their
  clones, every step leaves ``features()`` bit-for-bit equal,
  ``available_events()`` equal and the visible nodes in the same order.
* **Isolation** — sessions and clones on one shared document never see
  each other's scrolls or toggles, and the document's nodes are never
  mutated.
"""

from __future__ import annotations

import copy
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.traces.session_state as session_state
from repro.traces.generator import TraceGenerator
from repro.traces.session_state import FEATURE_WINDOW, SessionState, document_rng
from repro.webapp.apps import AppCatalog, AppProfile
from repro.webapp.dom import Viewport
from repro.webapp.events import EventType, Interaction, POINTER_EVENT_TYPES, interaction_of
from repro.webapp.semantic_tree import CallbackEffect, EffectKind

CATALOG = AppCatalog()
GENERATOR = TraceGenerator(catalog=CATALOG)
CLICK_EVENTS = {EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT}


class ReferenceSession:
    """The pre-overlay session model: a private tree mutated in place."""

    def __init__(self, profile: AppProfile):
        self.profile = profile
        self.history: deque = deque(maxlen=FEATURE_WINDOW)
        self.reset_document()

    def _load(self, doc_index: int) -> None:
        self.doc_index = doc_index
        tree, self.semantic = self.profile.build_dom(document_rng(self.profile, doc_index))
        self.root = tree.root
        self.viewport = tree.viewport
        self.page_height = tree.page_height

    def reset_document(self) -> None:
        self._load(0)
        self.last_navigated = False
        self.history.clear()

    # -- naive queries -----------------------------------------------------

    @staticmethod
    def displayed(node) -> bool:
        while node is not None:
            if node.display == "none":
                return False
            node = node.parent
        return True

    def visible(self) -> list:
        return [
            node
            for node in self.root.walk()
            if self.displayed(node) and self.viewport.intersects(node.y, node.height)
        ]

    def find(self, node_id: str):
        for node in self.root.walk():
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def features(self) -> list[float]:
        visible = self.visible()
        clickable = min(
            1.0, sum(n.area for n in visible if n.listeners & CLICK_EVENTS) / self.viewport.area
        )
        links = sum(1 for n in visible if n.is_link) / len(visible) if visible else 0.0
        distance = float(FEATURE_WINDOW)
        for d, (event_type, _) in enumerate(reversed(self.history), start=1):
            if interaction_of(event_type) is Interaction.TAP:
                distance = float(d)
                break
        navigations = sum(1 for _, navigated in self.history if navigated)
        scrolls = sum(
            1 for event_type, _ in self.history if interaction_of(event_type) is Interaction.MOVE
        )
        return [
            clickable,
            links,
            distance / FEATURE_WINDOW,
            navigations / FEATURE_WINDOW,
            scrolls / FEATURE_WINDOW,
        ]

    def available_events(self) -> set[EventType]:
        if self.last_navigated:
            return {EventType.LOAD}
        events: set[EventType] = set()
        for node in self.visible():
            events |= node.listeners
        return events.intersection(POINTER_EVENT_TYPES)

    # -- in-place evolution ------------------------------------------------

    def scroll(self, delta_y: float) -> None:
        viewport = self.viewport.scrolled(delta_y)
        max_scroll = max(0.0, self.page_height - viewport.height)
        self.viewport = Viewport(viewport.width, viewport.height, min(viewport.scroll_y, max_scroll))

    def apply_effect(self, effect: CallbackEffect) -> None:
        if effect.kind is EffectKind.SCROLL_BY:
            self.scroll(effect.scroll_delta_y)
        elif effect.kind is EffectKind.NAVIGATE:
            self.scroll(-self.viewport.scroll_y)
        for node_id in effect.target_node_ids:
            node = self.find(node_id)
            if effect.kind is EffectKind.TOGGLE_DISPLAY:
                node.display = "none" if node.display == "block" else "block"
            elif effect.kind is EffectKind.SHOW:
                node.display = "block"
            elif effect.kind is EffectKind.HIDE:
                node.display = "none"

    def apply_event(self, event_type: EventType, node_id: str, navigates: bool | None = None) -> None:
        effect = self.semantic.effect_of(node_id, event_type)
        did_navigate = effect.navigates if navigates is None else navigates
        if event_type is EventType.LOAD:
            self._load(self.doc_index + 1)
            self.last_navigated = False
        elif did_navigate:
            self.last_navigated = True
        else:
            self.apply_effect(effect)
            self.last_navigated = False
        self.history.append((event_type, did_navigate))


def assert_same(state: SessionState, reference: ReferenceSession) -> None:
    assert state.doc_index == reference.doc_index
    assert state.dom.viewport == reference.viewport
    assert state.features().tolist() == reference.features()
    assert state.available_events() == reference.available_events()
    assert [n.node_id for n in state.dom.visible_nodes()] == [
        n.node_id for n in reference.visible()
    ]


#: (action, pick, which pair) triples; see ``apply_action``.
ACTIONS = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 10_000), st.integers(0, 7)),
    min_size=1,
    max_size=40,
)

_EFFECT_KINDS = (EffectKind.TOGGLE_DISPLAY, EffectKind.SHOW, EffectKind.HIDE)


def apply_action(pairs: list, action: int, pick: int, which: int) -> None:
    state, reference = pairs[which % len(pairs)]
    root_id = reference.root.node_id
    visible = reference.visible()
    if action == 7:
        pairs.append((state.clone(), copy.deepcopy(reference)))
        return
    if action == 8:
        state.reset_document()
        reference.reset_document()
        return
    if action == 6:
        # A SHOW/HIDE/TOGGLE on any node, root included, straight onto the DOM.
        nodes = list(reference.root.walk())
        effect = CallbackEffect(
            kind=_EFFECT_KINDS[pick % 3], target_node_ids=(nodes[pick % len(nodes)].node_id,)
        )
        effect.apply(state.dom)
        reference.apply_effect(effect)
        return
    navigates = None
    if action in (0, 1):
        event_type, node_id = (EventType.SCROLL, EventType.TOUCHMOVE)[action], root_id
    elif action == 4:
        event_type, node_id = EventType.LOAD, root_id
    else:
        # 2: a tap (menu toggles and navigating links among the targets),
        # 3: a submit, 5: a tap replayed with a recorded navigates flag.
        event_type = EventType.SUBMIT if action == 3 else (EventType.CLICK, EventType.TOUCHSTART)[pick % 2]
        targets = [n for n in visible if event_type in n.listeners and n.node_id != root_id]
        if not targets:
            event_type, node_id = EventType.SCROLL, root_id
        else:
            node_id = targets[pick % len(targets)].node_id
        if action == 5:
            navigates = bool(pick & 2)
    state.apply_event(event_type, node_id, navigates=navigates)
    reference.apply_event(event_type, node_id, navigates=navigates)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        app=st.sampled_from(CATALOG.names()),
        seed=st.integers(0, 2**16),
        prefix=st.integers(0, 25),
        actions=ACTIONS,
    )
    def test_overlay_matches_in_place_reference_at_every_event(self, app, seed, prefix, actions):
        profile = CATALOG.get(app)
        state, reference = SessionState.fresh(profile), ReferenceSession(profile)
        assert_same(state, reference)
        # A generated trace's events, replayed with their recorded ground
        # truth, bring both models to a realistic mid-session state.
        for event in GENERATOR.generate(app, seed=seed).events[:prefix]:
            state.apply_event(event.event_type, event.node_id, navigates=event.navigates)
            reference.apply_event(event.event_type, event.node_id, navigates=event.navigates)
            assert_same(state, reference)
        pairs = [(state, reference)]
        for action, pick, which in actions:
            apply_action(pairs, action, pick, which)
            # Every pair, not just the one acted on: an action on one
            # session or clone must leave all the others untouched.
            for other_state, other_reference in pairs:
                assert_same(other_state, other_reference)


class TestSharedDocument:
    @pytest.fixture
    def profile(self):
        return CATALOG.get("cnn")

    def snapshot(self, state: SessionState):
        return (
            state.features().tolist(),
            state.available_events(),
            [n.node_id for n in state.dom.visible_nodes()],
        )

    def test_sessions_and_clones_share_one_document_in_isolation(self, profile):
        a, b = SessionState.fresh(profile), SessionState.fresh(profile)
        c = a.clone()
        assert a.dom.root is b.dom.root is c.dom.root
        assert a.semantic is b.semantic is c.semantic
        before = {id(s): self.snapshot(s) for s in (a, b, c)}

        a.apply_event(EventType.CLICK, f"{profile.name}-menu-btn-0")
        assert self.snapshot(a) != before[id(a)]
        assert self.snapshot(b) == before[id(b)]
        assert self.snapshot(c) == before[id(c)]

        b.apply_event(EventType.SCROLL, b.dom.root.node_id)
        assert self.snapshot(b) != before[id(b)]
        assert self.snapshot(c) == before[id(c)]
        assert a.dom.viewport.scroll_y == 0.0

        # The shared document itself is never mutated.
        assert a.dom.find(f"{profile.name}-menu-0").display == "none"
        assert SessionState.fresh(profile).dom.display_of(f"{profile.name}-menu-0") == "none"

    def test_equal_overlays_share_one_visibility_pass(self, profile):
        a, b = SessionState.fresh(profile), SessionState.fresh(profile)
        button = f"{profile.name}-menu-btn-0"
        a.apply_event(EventType.CLICK, button)
        a.apply_event(EventType.CLICK, button)
        # Toggled back to the base display: the override is dropped, so the
        # overlay equals a fresh one and hits the same memoised pass.
        assert a.dom.visibility() is b.dom.visibility()

    def test_build_dom_runs_once_per_document(self, profile, monkeypatch):
        session_state._built_document.cache_clear()
        calls = []
        build_dom = AppProfile.build_dom

        def counting(self, rng=None):
            calls.append(self.name)
            return build_dom(self, rng)

        monkeypatch.setattr(AppProfile, "build_dom", counting)
        sessions = [SessionState.fresh(profile) for _ in range(3)]
        for state in sessions:
            state.apply_event(EventType.LOAD, state.dom.root.node_id)
        sessions[0].reset_document()
        assert calls == [profile.name, profile.name]
