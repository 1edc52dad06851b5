"""Transition counting, normalization, successor ranking, tier assignment."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.errors import ConfigError, LogParseError
from switchsim.transitions import (TransitionModel, assign_tiers, fit_transition_model,
                                   ingest_log, load_task_log, top_k_successors,
                                   transition_probs)

from reference import reference_load_task_log

TASKS = ["Car", "TrafficLight", "Obstacle", "Person", "Bicycle"]
ROUTE = ["Car", "TrafficLight", "Car", "Obstacle", "Person"]


class TestIngestLog:
    def test_counts_route_pairs(self):
        counts = ingest_log(ROUTE, known_tasks=TASKS)
        assert counts == {
            ("Car", "TrafficLight"): 1,
            ("TrafficLight", "Car"): 1,
            ("Car", "Obstacle"): 1,
            ("Obstacle", "Person"): 1,
        }

    def test_single_entry_log_counts_nothing(self):
        assert ingest_log(["Car"], known_tasks=TASKS) == {}

    def test_self_transitions_are_dropped(self):
        assert ingest_log(["A", "A", "B"]) == {("A", "B"): 1}

    def test_unknown_task_reports_position(self):
        with pytest.raises(LogParseError) as err:
            ingest_log(["Car", "Spaceship"], known_tasks=TASKS)
        assert err.value.position == 1

    @given(st.lists(st.sampled_from("abc"), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counts_conservation(self, entries):
        counts = ingest_log(entries)
        nonself = sum(1 for x, y in zip(entries, entries[1:]) if x != y)
        assert sum(counts.values()) == nonself


class TestTransitionProbs:
    def test_route_rows_normalize(self):
        probs = transition_probs(ingest_log(ROUTE))
        assert probs[("Car", "TrafficLight")] == 0.5
        assert probs[("Car", "Obstacle")] == 0.5
        assert probs[("TrafficLight", "Car")] == 1.0

    def test_single_target_row(self):
        assert transition_probs({("A", "B"): 3}) == {("A", "B"): 1.0}

    def test_empty_counts(self):
        assert transition_probs({}) == {}

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, entries):
        probs = transition_probs(ingest_log(entries))
        rows: dict[str, float] = {}
        for (a, _b), p in probs.items():
            rows[a] = rows.get(a, 0.0) + p
        for total in rows.values():
            assert abs(total - 1.0) <= 1e-9


class TestTopKSuccessors:
    def test_tie_breaks_lexicographically(self):
        probs = transition_probs(ingest_log(ROUTE))
        assert top_k_successors(probs, "Car", 1) == ["Obstacle"]

    def test_k_larger_than_row_returns_whole_row(self):
        probs = transition_probs(ingest_log(ROUTE))
        assert top_k_successors(probs, "TrafficLight", 5) == ["Car"]

    def test_route_model_k2(self):
        probs = transition_probs(ingest_log(ROUTE))
        assert top_k_successors(probs, "Car", 2) == ["Obstacle", "TrafficLight"]

    def test_unseen_task_has_no_successors(self):
        assert top_k_successors({}, "Car", 2) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            top_k_successors({}, "Car", 0)


class TestAssignTiers:
    def actives(self, actives: dict[str, set[int]]) -> dict[str, frozenset[int]]:
        return {t: frozenset(a) for t, a in actives.items()}

    def test_no_successors_leaves_level2_empty(self):
        model = TransitionModel(counts={}, probs={}, successors={}, k=2)
        tiers = assign_tiers("A", self.actives({"A": {0, 1}}), model)
        assert tiers.runtime == {0, 1}
        assert tiers.preload == frozenset()

    def test_successor_blocks_become_level2(self):
        actives = self.actives({"cur": {0, 1}, "next": {1, 2}})
        model = TransitionModel(counts={}, probs={("cur", "next"): 1.0},
                                successors={"cur": ("next",)}, k=1)
        tiers = assign_tiers("cur", actives, model)
        assert tiers.runtime == {0, 1}
        assert tiers.preload == {2}

    def test_five_task_route_matches_set_algebra(self):
        actives = {
            "Car": {0, 1, 2, 3},
            "TrafficLight": {2, 3, 4},
            "Obstacle": {3, 4, 5, 6},
            "Person": {6, 7},
            "Bicycle": {8},
        }
        model = fit_transition_model(ROUTE, k=2, known_tasks=TASKS)
        tiers = assign_tiers("Car", self.actives(actives), model)
        # Independent set-algebra evaluation of the tier definition.
        level1 = set(actives["Car"])
        level2 = set().union(*(actives[t] for t in model.successors["Car"])) - level1
        assert tiers.runtime == level1
        assert tiers.preload == level2

    def test_partition_covers_all_blocks(self):
        # Level 3 is the complement of levels 1 and 2, so the three tiers
        # partition the model exactly when those two are disjoint.
        actives = self.actives({"a": {0, 5}, "b": {1, 2, 5}})
        model = fit_transition_model(["a", "b", "a"], k=2)
        tiers = assign_tiers("a", actives, model)
        assert tiers.runtime == {0, 5}
        assert tiers.preload == {1, 2}  # block 5 stays in the runtime tier
        assert not tiers.runtime & tiers.preload

    def test_unknown_current_task(self):
        model = TransitionModel(counts={}, probs={}, successors={}, k=2)
        with pytest.raises(ConfigError):
            assign_tiers("ghost", {}, model)


class TestModelRoundTrip:
    def test_json_dump_holds_every_pair(self):
        # The document ``estimate`` writes keeps every count, probability
        # and successor list through a trip through JSON text.
        model = fit_transition_model(ROUTE, k=2, known_tasks=TASKS)
        doc = json.loads(json.dumps(model.to_json()))
        assert {(a, b): n for a, row in doc["counts"].items()
                for b, n in row.items()} == dict(model.counts)
        assert {(a, b): p for a, row in doc["probs"].items()
                for b, p in row.items()} == dict(model.probs)
        assert {t: tuple(s) for t, s in doc["successors"].items()} == \
            dict(model.successors)
        assert doc["k"] == model.k

    def test_successor_determinism(self):
        runs = [fit_transition_model(ROUTE, k=2).successors for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestLoadTaskLog:
    def test_newline_delimited(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("Car\nTrafficLight\n\nCar\n")
        assert load_task_log(path) == ["Car", "TrafficLight", "Car"]

    def test_csv_with_timestamps(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0.0,Car\n1.5,TrafficLight\n2.0,Car\n")
        assert load_task_log(path) == ["Car", "TrafficLight", "Car"]


# Log lines: bare ids or ``timestamp,task`` rows, with padding, extra
# commas and blank lines; separators mix ``\n`` and ``\r\n``.
LOG_FIELD = st.text(alphabet="ab1. \t", max_size=4)
LOG_LINE = st.one_of(
    LOG_FIELD,
    st.builds(",".join, st.lists(LOG_FIELD, min_size=2, max_size=4)),
    st.sampled_from(["", " ", "\t", "Car", " Car\t", "0.5,Car", "0.5, Car ", "1,2,Car"]))


@st.composite
def log_texts(draw):
    lines = draw(st.lists(LOG_LINE, max_size=20))
    seps = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, seps))


class TestLoadTaskLogMatchesReference:
    @given(st.one_of(log_texts(), st.text(alphabet="ab,. \t\r\n", max_size=60)))
    @settings(max_examples=100, deadline=None)
    def test_generated_text(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "generated-log.txt"
        path.write_bytes(text.encode("utf-8"))
        assert load_task_log(path) == reference_load_task_log(path)
