import pytest

from dcjac.dcmax import load_problem
from dcjac.instances import random_affine_problem
from util import reference_random_affine_document


class TestRandomAffineProblem:
    def test_equals_loaded_text_document_on_acceptance_corpus(self):
        for seed in range(200):
            n, m = seed % 4 + 1, seed % 3 + 1
            F = random_affine_problem(n, m, 5, seed=seed)
            G = load_problem(reference_random_affine_document(n, m, 5, seed))
            assert F == G, seed
            assert repr(F) == repr(G), seed

    @pytest.mark.parametrize("n, m, pieces", [(1, 1, 1), (6, 2, 8), (3, 4, 2), (10, 1, 3)])
    def test_equals_loaded_text_document_on_other_shapes(self, n, m, pieces):
        for seed in range(20):
            F = random_affine_problem(n, m, pieces, seed)
            G = load_problem(reference_random_affine_document(n, m, pieces, seed))
            assert F == G and repr(F) == repr(G), seed

    @pytest.mark.parametrize("n, m, pieces", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_non_positive_sizes_rejected(self, n, m, pieces):
        with pytest.raises(ValueError, match="positive"):
            random_affine_problem(n, m, pieces, 0)
