"""The one-pass transition fit, tier assignment, and the task-log reader."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import transitions
from switchsim.errors import ConfigError
from switchsim.synthetic import gen_markov_log
from switchsim.transitions import (TransitionModel, assign_tiers, fit_transition_model,
                                   index_typecode, load_task_indices, load_task_log)
from switchsim.workloads import DRIVING_PAIR_BIAS, DRIVING_TASKS

from reference import reference_fit_transition_model, reference_load_task_log

TASKS = ["Car", "TrafficLight", "Obstacle", "Person", "Bicycle"]
ROUTE = ["Car", "TrafficLight", "Car", "Obstacle", "Person"]
SLICE = transitions._SLICE_CHARS


class TestFitCounts:
    def test_counts_route_pairs(self):
        model = fit_transition_model(ROUTE)
        assert model.counts == {
            ("Car", "TrafficLight"): 1,
            ("TrafficLight", "Car"): 1,
            ("Car", "Obstacle"): 1,
            ("Obstacle", "Person"): 1,
        }

    def test_single_entry_log_counts_nothing(self):
        model = fit_transition_model(["Car"])
        assert model.counts == model.probs == model.successors == {}

    def test_self_transitions_are_dropped(self):
        assert fit_transition_model(["A", "A", "B"]).counts == {("A", "B"): 1}

    @given(st.lists(st.sampled_from("abc"), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counts_conservation(self, entries):
        counts = fit_transition_model(entries).counts
        nonself = sum(1 for x, y in zip(entries, entries[1:]) if x != y)
        assert sum(counts.values()) == nonself


class TestFitProbs:
    def test_route_rows_normalize(self):
        probs = fit_transition_model(ROUTE).probs
        assert probs[("Car", "TrafficLight")] == 0.5
        assert probs[("Car", "Obstacle")] == 0.5
        assert probs[("TrafficLight", "Car")] == 1.0

    def test_single_target_row(self):
        assert fit_transition_model(["A", "B"] * 3).probs == {("A", "B"): 1.0,
                                                              ("B", "A"): 1.0}

    def test_empty_log(self):
        model = fit_transition_model([])
        assert model.counts == model.probs == model.successors == {}

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, entries):
        probs = fit_transition_model(entries).probs
        rows: dict[str, float] = {}
        for (a, _b), p in probs.items():
            rows[a] = rows.get(a, 0.0) + p
        for total in rows.values():
            assert abs(total - 1.0) <= 1e-9


class TestFitSuccessors:
    def test_tie_breaks_lexicographically(self):
        assert fit_transition_model(ROUTE, k=1).successors["Car"] == ("Obstacle",)

    def test_k_larger_than_row_returns_whole_row(self):
        assert fit_transition_model(ROUTE, k=5).successors["TrafficLight"] == ("Car",)

    def test_route_model_k2(self):
        assert fit_transition_model(ROUTE, k=2).successors == {
            "Car": ("Obstacle", "TrafficLight"),
            "Obstacle": ("Person",),
            "TrafficLight": ("Car",),
        }

    def test_unseen_task_has_no_successors(self):
        model = fit_transition_model(ROUTE)
        assert "Bicycle" not in model.successors
        assert model.successor_probs("Bicycle") == {}

    @pytest.mark.parametrize("log", [[], ["Car", "Car"], ROUTE])
    def test_k_must_be_positive(self, log):
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            fit_transition_model(log, k=0)


# Task ids with a shared prefix and repeats, so that rows tie and several
# successors compete for k slots; a k past sys.maxsize must still slice.
FIT_LOG = st.lists(st.sampled_from(["a", "b", "c", "d", "a1", "b10"]), max_size=60)


def model_items(model: TransitionModel):
    # Every field in its dict order, plus the JSON text ``estimate`` writes.
    return (list(model.counts.items()), list(model.probs.items()),
            list(model.successors.items()), model.k,
            json.dumps(model.to_json()))


class TestFitMatchesReference:
    @given(FIT_LOG, st.one_of(st.integers(1, 6), st.just(10**30)))
    @settings(max_examples=300, deadline=None)
    def test_generated_logs(self, entries, k):
        assert model_items(fit_transition_model(entries, k)) == \
            model_items(reference_fit_transition_model(entries, k))

    def test_driving_log(self):
        log = gen_markov_log(11, 2500, list(DRIVING_TASKS), pair_bias=DRIVING_PAIR_BIAS)
        for k in (1, 2, 4):
            assert model_items(fit_transition_model(log, k)) == \
                model_items(reference_fit_transition_model(log, k))


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
        model = fit_transition_model(ROUTE, k=2)
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
        model = fit_transition_model(ROUTE, k=2)
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


def numbered_rows(count, sep="\n", start=0):
    """``count`` distinct ``timestamp,task`` and bare rows, each ended by
    ``sep``: any row lost or repeated changes the entries."""
    return "".join((f"{i}.5, T{i}" if i % 2 else f"T{i}") + sep
                   for i in range(start, start + count))


# Texts that span several slices, each with the feature its id names.
MULTI_SLICE_TEXTS = {
    # Rows of 4 to 12 characters put some line across every boundary.
    "straddling-lines": numbered_rows(3_000),
    "a-line-longer-than-a-slice": (numbered_rows(300) + "9.5," + "L" * (3 * SLICE)
                                   + "\n" + numbered_rows(300, start=300)),
    "one-line-of-several-slices": "x" * (2 * SLICE + 1),
    "blank-runs-at-a-boundary": ("a" * (SLICE - 3) + "\n" + " \n\n\t\n" * 8 + "b\n"
                                 + "\n" * (2 * SLICE) + numbered_rows(500)),
    "a-boundary-at-each-line-break": ("c" * (SLICE - 1) + "\n") * 5,
    "crlf": numbered_rows(2_000, sep="\r\n"),
    "lone-cr": numbered_rows(2_000, sep="\r"),
    "mixed-breaks": numbered_rows(700) + numbered_rows(700, "\r\n", 700)
                    + numbered_rows(700, "\r", 1400),
    "no-final-line-break": numbered_rows(2_000)[:-1],
}


class TestLoadTaskLogAcrossSlices:
    @pytest.mark.parametrize("name", MULTI_SLICE_TEXTS)
    def test_matches_reference(self, tmp_path, name):
        text = MULTI_SLICE_TEXTS[name]
        assert len(text) > SLICE
        path = tmp_path / "log.txt"
        path.write_bytes(text.encode("utf-8"))
        assert load_task_log(path) == reference_load_task_log(path)

    @given(st.lists(st.tuples(st.integers(0, 2 * SLICE), st.sampled_from("ab ,\t"),
                              st.sampled_from(["\n", "\r\n", "\r", "\n\n"])),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_generated_long_lines(self, tmp_path_factory, lines):
        text = "".join(f"{char * length}{i}{sep}" for i, (length, char, sep)
                       in enumerate(lines))
        path = tmp_path_factory.getbasetemp() / "generated-long-log.txt"
        path.write_bytes(text.encode("utf-8"))
        assert load_task_log(path) == reference_load_task_log(path)


def reference_task_indices(path, task_ids):
    """Each entry's index in ``task_ids`` (0 for an entry that names no
    task) and the position and text of the first such entry, or None."""
    entries = reference_load_task_log(path)
    index = {tid: i for i, tid in enumerate(task_ids)}
    unknown = next(((pos, e) for pos, e in enumerate(entries) if e not in index), None)
    return [index.get(e, 0) for e in entries], unknown


class TestLoadTaskIndices:
    @pytest.mark.parametrize("size, typecode", [
        (0, "B"), (256, "B"), (257, "H"), (1 << 16, "H"), ((1 << 16) + 1, "I"),
    ])
    def test_narrowest_typecode(self, size, typecode):
        assert index_typecode(size) == typecode

    @pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
    def test_every_id_is_its_index(self, tmp_path, timestamps):
        path = tmp_path / "trace.txt"
        steps = ROUTE * 3
        path.write_text("".join(f"{i}.5, {t}\n" if timestamps else f" {t}\n\n"
                                for i, t in enumerate(steps)))
        indices, unknown = load_task_indices(path, TASKS)
        assert indices.typecode == "B" and unknown is None
        assert indices.tolist() == [TASKS.index(t) for t in steps]

    @pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
    def test_unknown_ids_keep_their_positions(self, tmp_path, timestamps):
        # Every entry still takes a slot, and the first unknown one is named.
        path = tmp_path / "trace.txt"
        steps = ["Car", "Ghost", "Person", "Ghost2", "Car"]
        path.write_text("".join(f"{i}.5,{t}\n" if timestamps else f"{t}\n"
                                for i, t in enumerate(steps)))
        indices, unknown = load_task_indices(path, TASKS)
        assert indices.tolist() == [0, 0, 3, 0, 0]
        assert unknown == (1, "Ghost")

    @given(st.one_of(log_texts(), st.text(alphabet="ab,. \t\r\n", max_size=60)),
           st.sampled_from([(), TASKS, ["a", "b", "ab"], ["ab", "b", "a"]]))
    @settings(max_examples=100, deadline=None)
    def test_generated_text(self, tmp_path_factory, text, task_ids):
        path = tmp_path_factory.getbasetemp() / "generated-trace.txt"
        path.write_bytes(text.encode("utf-8"))
        indices, unknown = load_task_indices(path, task_ids)
        assert (indices.tolist(), unknown) == reference_task_indices(path, task_ids)

    @pytest.mark.parametrize("name", MULTI_SLICE_TEXTS)
    @pytest.mark.parametrize("known", ["all", "two"])
    def test_across_slices(self, tmp_path, name, known):
        # The numbered rows name up to 3,000 distinct tasks, listed in
        # reverse, so the indices are two bytes wide; with two tasks known,
        # the first unknown entry is named.
        path = tmp_path / "trace.txt"
        path.write_bytes(MULTI_SLICE_TEXTS[name].encode("utf-8"))
        task_ids = ([f"T{i}" for i in reversed(range(3_000))] if known == "all"
                    else ["T2", "T1"])
        indices, unknown = load_task_indices(path, task_ids)
        assert indices.typecode == index_typecode(len(task_ids))
        assert (indices.tolist(), unknown) == reference_task_indices(path, task_ids)
