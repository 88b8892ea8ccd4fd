"""Unit tests for post-level extraction and user-level aggregation."""

import pytest

from repro.stylometry import FeatureExtractor, default_feature_space

TEXT = (
    "Hi everyone, I have been having really bad migraines for 3 weeks!!! "
    "My doctor said it is becuase of stress... has anyone tried imitrex? "
    "I take 20 mg and i feel AWFUL :("
)


@pytest.fixture(scope="module")
def fx():
    return FeatureExtractor()


class TestExtractSparse:
    def test_nonempty(self, fx):
        out = fx.extract_sparse(TEXT)
        assert len(out) > 50

    def test_empty_text(self, fx):
        assert fx.extract_sparse("") == {}
        assert fx.extract_sparse("   \n ") == {}

    def test_all_values_positive(self, fx):
        assert all(v > 0 for v in fx.extract_sparse(TEXT).values())

    def test_slots_in_range(self, fx):
        space = default_feature_space()
        assert all(0 <= s < space.size for s in fx.extract_sparse(TEXT))

    def test_deterministic(self, fx):
        assert fx.extract_sparse(TEXT) == fx.extract_sparse(TEXT)

    def test_char_count_feature(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        assert out[space.index_of("length:char_count")] == len(TEXT)

    def test_function_word_hit(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        assert out.get(space.index_of("fw:i"), 0) > 0

    def test_misspelling_hit(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        assert out.get(space.index_of("misspell:becuase"), 0) > 0

    def test_digit_features(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        assert out.get(space.index_of("digit:2"), 0) > 0

    def test_letter_freqs_sum_to_one(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        sl = space.slots("letter_freq")
        total = sum(v for s, v in out.items() if sl.start <= s < sl.stop)
        assert total == pytest.approx(1.0)

    def test_pos_tag_freqs_sum_to_one(self, fx):
        space = default_feature_space()
        out = fx.extract_sparse(TEXT)
        sl = space.slots("pos_tags")
        total = sum(v for s, v in out.items() if sl.start <= s < sl.stop)
        assert total == pytest.approx(1.0)


class TestExtractMatrix:
    def test_shape_and_rows(self, fx):
        texts = [TEXT, "Short post.", ""]
        mat = fx.extract_matrix(texts)
        assert mat.shape == (3, default_feature_space().size)
        assert mat[2].nnz == 0

    def test_row_equals_single(self, fx):
        mat = fx.extract_matrix([TEXT])
        row = dict(zip(mat.indices.tolist(), mat.data.tolist()))
        assert row == fx.extract_sparse(TEXT)

    def test_empty_list(self, fx):
        mat = fx.extract_matrix([])
        assert mat.shape == (0, default_feature_space().size)


class TestAttributeProfile:
    """A(u) and WA(u): a user's row of ``attribute_weights``."""

    def test_weights_count_posts(self, fx):
        weights = fx.attribute_weights([[TEXT, TEXT]])
        # every attribute present in TEXT appears in both posts
        assert set(weights.data.tolist()) == {2}

    def test_binary_attribute_semantics(self, fx):
        weights = fx.attribute_weights([[TEXT, "Totally different words here."]])
        assert all(1 <= v <= 2 for v in weights.data.tolist())

    def test_empty_user(self, fx):
        weights = fx.attribute_weights([[]])
        assert weights.shape == (1, default_feature_space().size)
        assert weights.nnz == 0

    def test_attribute_set(self, fx):
        weights = fx.attribute_weights([[TEXT]])
        assert set(weights.indices.tolist()) == set(fx.extract_sparse(TEXT))
