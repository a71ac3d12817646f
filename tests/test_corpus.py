"""Corpus ingestion, cleaning, split, and bucket tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storypointer.corpus import (
    BUCKETS,
    LabeledCorpus,
    RequirementRecord,
    bucket_index,
    bucketize,
    clean_text,
    corpus_stats,
    kfold_split,
    leave_one_project_out,
    load_labeled,
    load_unlabeled,
    save_jsonl,
    tokenize_words,
)
from storypointer.kernel import RngStream


def make_corpus(rows):
    records = []
    for rid, project, text, effort in rows:
        cleaned = clean_text(text)
        records.append(
            RequirementRecord(
                id=rid,
                project=project,
                raw_text=text,
                text=cleaned,
                effort=float(effort),
                degenerate=(cleaned == ""),
            )
        )
    return LabeledCorpus(records=records)


class TestCleanText:
    def test_stopwords_and_punctuation_removed(self):
        assert clean_text("The man went to the store.") == "man went store"

    def test_empty_is_identity(self):
        assert clean_text("") == ""

    def test_symbols_split_tokens(self):
        assert clean_text("IP=10.0.0.1!!") == "ip 10 0 0 1"

    def test_intra_word_hyphen_kept(self):
        assert clean_text("state-of-the-art design") == "state-of-the-art design"

    def test_loose_hyphens_dropped(self):
        assert clean_text("- dash -- and trailing- -leading") == "dash trailing leading"

    def test_contractions_removed_entirely(self):
        assert clean_text("Don't break the build") == "break build"

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_output_alphabet(self, raw):
        cleaned = clean_text(raw)
        assert set(cleaned) <= set("abcdefghijklmnopqrstuvwxyz0123456789- ")
        assert "  " not in cleaned


class TestTokenizeAndPad:
    def test_split_preserves_order_and_duplicates(self):
        assert tokenize_words("man went store") == ["man", "went", "store"]
        assert tokenize_words("") == []
        assert tokenize_words("a a b") == ["a", "a", "b"]


class TestLoadLabeled:
    def test_jsonl_direct_mapping(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A-1", "project": "P", "text": "add login form", "effort": 3}\n')
        corpus = load_labeled(path)
        assert len(corpus.records) == 1
        record = corpus.records[0]
        assert record.id == "A-1" and record.project == "P"
        assert record.effort == 3.0
        assert record.text == "add login form"

    def test_csv_concatenates_title_description(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "issuekey,project,title,description,storypoint\n"
            'K-1,P,Add login,"User wants to log in, quickly",5\n'
        )
        corpus = load_labeled(path)
        assert corpus.records[0].raw_text == "Add login User wants to log in, quickly"
        assert corpus.records[0].effort == 5.0

    def test_negative_storypoint_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "issuekey,project,title,description,storypoint\n"
            "K-1,P,a,b,-2\n"
            "K-2,P,c,d,3\n"
        )
        corpus = load_labeled(path)
        assert len(corpus.records) == 1
        assert len(corpus.rejections) == 1
        assert "non-positive" in corpus.rejections[0].reason

    def test_non_numeric_effort_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "project": "P", "text": "t", "effort": "large"}\n')
        corpus = load_labeled(path)
        assert len(corpus.records) == 0 and len(corpus.rejections) == 1

    def test_missing_column_is_fatal(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("issuekey,project,title,storypoint\nK-1,P,a,3\n")
        with pytest.raises(ValueError, match="description"):
            load_labeled(path)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_labeled(tmp_path / "absent.csv")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "A", "project": "P", "text": "one", "effort": 1}\n'
            '{"id": "A", "project": "P", "text": "two", "effort": 2}\n'
        )
        corpus = load_labeled(path)
        assert len(corpus.records) == 1
        assert "duplicate" in corpus.rejections[0].reason

    def test_effort_above_range_kept_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "project": "P", "text": "t", "effort": 150}\n')
        corpus = load_labeled(path)
        assert len(corpus.records) == 1 and corpus.over_range == 1

    def test_degenerate_record_flagged_not_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "project": "P", "text": "the of and", "effort": 2}\n')
        corpus = load_labeled(path)
        assert len(corpus.records) == 1
        assert corpus.records[0].degenerate

    def test_invalid_json_line_is_one_rejection(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "A", "project": "P", "text": "add login form", "effort": 3}\n'
            '{"id": "B", "project": "P", "text": "cut off\n'
            '{"id": "C", "project": "P", "text": "fix the cart", "effort": 5}\n'
        )
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["A", "C"]
        assert len(corpus.rejections) == 1
        assert corpus.rejections[0].where == "c.jsonl:2"
        assert corpus.rejections[0].reason.startswith("invalid json: ")

    def test_line_missing_effort_is_one_rejection(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "A", "project": "P", "text": "add login form"}\n'
            '{"id": "B", "project": "P", "text": "fix the cart", "effort": 5}\n'
        )
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["B"]
        assert len(corpus.rejections) == 1
        assert corpus.rejections[0].where == "c.jsonl:1"
        assert corpus.rejections[0].reason == "missing keys ['effort']"

    def test_non_object_lines_are_rejections(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '3\n'
            '[1, 2]\n'
            '"id project text effort"\n'
            '{"id": "B", "project": "P", "text": "fix the cart", "effort": 5}\n'
        )
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["B"]
        assert [(r.where, r.reason) for r in corpus.rejections] == [
            (f"c.jsonl:{n}", "not a JSON object") for n in (1, 2, 3)]

    def test_blank_jsonl_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\n{"id": "A", "project": "P", "text": "t", "effort": 2}\n  \n')
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["A"] and corpus.rejections == []

    @pytest.mark.parametrize("effort", ['"nan"', '"inf"', '"-Infinity"'])
    def test_non_finite_effort_rejected(self, tmp_path, effort):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "project": "P", "text": "t", "effort": %s}\n' % effort)
        corpus = load_labeled(path)
        assert len(corpus.records) == 0
        assert corpus.rejections[0].reason.startswith("non-finite effort")

    @pytest.mark.parametrize("key, value, reason", [
        ("text", "null", "text is not a string"),
        ("text", "[1, 2]", "text is not a string"),
        ("project", "7", "project is not a string"),
        ("project", "{}", "project is not a string"),
        ("effort", "true", "non-numeric effort True"),
        ("effort", "false", "non-numeric effort False"),
    ])
    def test_value_of_the_wrong_type_is_one_rejection(self, tmp_path, key, value, reason):
        fields = {"id": '"A"', "project": '"P"', "text": '"fix the cart"', "effort": "5"}
        fields[key] = value
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "B", "project": "P", "text": "add login form", "effort": 3}\n'
                        + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["B"]
        assert [(r.where, r.reason) for r in corpus.rejections] == [("c.jsonl:2", reason)]

    @pytest.mark.parametrize("value", ["null", "true", "0", "[]", "{}"])
    def test_id_that_is_not_a_string_is_one_rejection(self, tmp_path, value):
        """An id of another JSON type is refused, not read as its str():
        null would become "None" and 7 would collide with "7"."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "B", "project": "P", "text": "add login form", "effort": 3}\n'
                        '{"id": "None", "project": "P", "text": "fix the cart", "effort": 5}\n'
                        f'{{"id": {value}, "project": "P", "text": "fix the cart", "effort": 5}}\n')
        corpus = load_labeled(path)
        assert [r.id for r in corpus.records] == ["B", "None"]
        assert [(r.where, r.reason) for r in corpus.rejections] == [
            ("c.jsonl:3", "id is not a string")]

    def test_jsonl_roundtrip(self, tmp_path):
        source = tmp_path / "in.jsonl"
        source.write_text('{"id": "A", "project": "P", "text": "Fix the bug!", "effort": 2}\n')
        corpus = load_labeled(source)
        out = tmp_path / "out.jsonl"
        save_jsonl(corpus, out)
        again = load_labeled(out)
        assert again.records == corpus.records


class TestLoadUnlabeled:
    def test_lines_become_documents(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("first doc\nsecond doc\nthird doc\n")
        assert load_unlabeled(path).documents == ["first doc", "second doc", "third doc"]

    def test_blank_lines_dropped(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("one\n\ntwo\n")
        assert len(load_unlabeled(path).documents) == 2

    def test_jsonl_text_field_used(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"text": "from json"}\nplain line\n')
        assert load_unlabeled(path).documents == ["from json", "plain line"]

    def test_jsonl_text_that_is_not_a_string_is_skipped(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"text": null}\n{"text": 5}\n{"text": ["a"]}\n{"text": "kept"}\n'
                        '{"id": 1}\n')
        assert load_unlabeled(path).documents == ["kept"]

    def test_brace_line_that_is_not_json_is_kept_as_text(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"text": "cut off\n')
        assert load_unlabeled(path).documents == ['{"text": "cut off']

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            load_unlabeled(path)


class TestKFold:
    def test_ten_of_ten_gives_singleton_folds(self):
        corpus = make_corpus([(f"R{i}", "P", f"text {i}", 1) for i in range(10)])
        plan = kfold_split(corpus, k=10, seed=1)
        sizes = [len(test) for _, _, test in plan.rounds(corpus)]
        assert sizes == [1] * 10

    def test_remainder_goes_to_lowest_folds(self):
        corpus = make_corpus([(f"R{i}", "P", "t", 1) for i in range(23)])
        plan = kfold_split(corpus, k=10, seed=3)
        sizes = [len(test) for _, _, test in plan.rounds(corpus)]
        assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_same_seed_same_assignment(self):
        corpus = make_corpus([(f"R{i}", "P", "t", 1) for i in range(50)])
        a = kfold_split(corpus, k=5, seed=9)
        b = kfold_split(corpus, k=5, seed=9)
        assert a.fold_of == b.fold_of

    def test_different_seed_different_assignment(self):
        corpus = make_corpus([(f"R{i}", "P", "t", 1) for i in range(50)])
        a = kfold_split(corpus, k=5, seed=1)
        b = kfold_split(corpus, k=5, seed=2)
        assert a.fold_of != b.fold_of

    @pytest.mark.parametrize("seed", [0, 3])
    def test_assignment_matches_the_cursor_loop(self, seed):
        """Folds take consecutive runs of the seeded permutation, the larger
        ones first, in the order the reference loop below assigns them."""
        for n in range(2, 40):
            corpus = make_corpus([(f"R{i}", "P", "t", 1) for i in range(n)])
            for k in range(2, n + 1):
                order = RngStream(seed).permutation(n)
                base, extra = divmod(n, k)
                expected, cursor = {}, 0
                for fold in range(k):
                    size = base + (1 if fold < extra else 0)
                    for idx in order[cursor:cursor + size]:
                        expected[corpus.records[idx].id] = fold
                    cursor += size
                plan = kfold_split(corpus, k=k, seed=seed)
                assert list(plan.fold_of.items()) == list(expected.items())

    def test_k_larger_than_corpus_rejected(self):
        corpus = make_corpus([("R0", "P", "t", 1)])
        with pytest.raises(ValueError):
            kfold_split(corpus, k=2, seed=0)

    @given(st.integers(5, 60), st.integers(2, 10), st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_folds_partition_corpus(self, n, k, seed):
        if k > n:
            n = k
        corpus = make_corpus([(f"R{i}", "P", "t", 1) for i in range(n)])
        plan = kfold_split(corpus, k=k, seed=seed)
        all_test = []
        for _, train, test in plan.rounds(corpus):
            ids = {r.id for r in test}
            assert ids.isdisjoint({r.id for r in train})
            assert len(test) in (n // k, n // k + 1)
            all_test.extend(ids)
        assert sorted(all_test) == sorted(r.id for r in corpus.records)


class TestLeaveOneProjectOut:
    def test_two_projects(self):
        corpus = make_corpus(
            [("a", "P", "t", 1), ("b", "P", "t", 1), ("c", "P", "t", 1),
             ("d", "Q", "t", 1), ("e", "Q", "t", 1)]
        )
        plan = leave_one_project_out(corpus)
        rounds = {label: (train, test) for label, train, test in plan.rounds(corpus)}
        assert set(rounds) == {"P", "Q"}
        assert len(rounds["P"][1]) == 3 and len(rounds["P"][0]) == 2
        assert len(rounds["Q"][1]) == 2 and len(rounds["Q"][0]) == 3

    def test_round_count_equals_project_count(self):
        corpus = make_corpus([(f"r{i}", f"P{i % 4}", "t", 1) for i in range(12)])
        assert len(leave_one_project_out(corpus).order) == 4

    def test_single_project_rejected(self):
        corpus = make_corpus([("a", "P", "t", 1), ("b", "P", "t", 1)])
        with pytest.raises(ValueError):
            leave_one_project_out(corpus)

    def test_rounds_partition_corpus(self):
        corpus = make_corpus([(f"r{i}", f"P{i % 3}", "t", 1) for i in range(11)])
        plan = leave_one_project_out(corpus)
        covered = []
        for label, train, test in plan.rounds(corpus):
            assert {r.project for r in test} == {label}
            assert all(r.project != label for r in train)
            covered.extend(r.id for r in test)
        assert sorted(covered) == sorted(r.id for r in corpus.records)


class TestBucketize:
    def test_tie_resolves_to_lower(self):
        assert bucketize(4) == 3

    def test_nearest_wins(self):
        assert bucketize(6) == 5

    def test_idempotent_on_bucket_values(self):
        for b in BUCKETS:
            assert bucketize(b) == b

    def test_above_range_clamps(self):
        assert bucketize(250) == 100

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            bucketize(0)

    def test_bucket_index(self):
        assert bucket_index(1) == 0
        assert bucket_index(99) == 8

    @given(st.floats(min_value=0.01, max_value=500, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_output_always_in_scheme(self, effort):
        value = bucketize(effort)
        assert value in BUCKETS
        assert bucketize(value) == value


class TestCorpusStats:
    def test_population_moments(self):
        corpus = make_corpus([("a", "P", "red green", 1), ("b", "P", "one two three four", 2)])
        stats = corpus_stats(corpus)
        assert stats.words_mean == 3.0
        assert stats.words_std == 1.0

    def test_effort_histogram_exact_values(self):
        corpus = make_corpus([("a", "P", "x", 1), ("b", "P", "y", 1), ("c", "P", "z", 2)])
        stats = corpus_stats(corpus)
        assert stats.effort_hist == [(1.0, 1.0, 2), (2.0, 2.0, 1)]

    def test_words_histogram_bins(self):
        corpus = make_corpus([("a", "P", "red green", 1), ("b", "P", " ".join(["tok"] * 12), 2)])
        stats = corpus_stats(corpus)
        assert (0, 10, 1) in stats.words_hist
        assert (10, 20, 1) in stats.words_hist

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats(LabeledCorpus(records=[]))
