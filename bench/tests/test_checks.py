"""The benchmark's oracles on cases small enough to work out by hand."""

import numpy as np
import pytest

import checks
import gen
import spans
from hadahash import codebook as cb


def test_average_precision_of_three_item_ranking():
    # Relevant at ranks 1 and 3: (1/1 + 2/3) / 2.
    assert checks.average_precision(np.array([True, False, True])) == \
        pytest.approx(5 / 6, abs=1e-15)
    assert checks.average_precision(np.array([False, False])) is None


def test_hadamard_entries_order_four():
    expected = np.array([[1, 1, 1, 1],
                         [1, -1, 1, -1],
                         [1, 1, -1, -1],
                         [1, -1, -1, 1]])
    assert np.array_equal(checks.hadamard_entries(range(4), range(4)),
                          expected)
    assert np.array_equal(checks.hadamard_entries(range(8), range(8)),
                          cb.sylvester(8))


def test_pack_is_lsb_first_and_unpack_inverts_it():
    bits = np.array([[False, True, True], [True, False, False]])
    words = checks.pack(bits)
    assert words.tolist() == [[6], [1]]
    assert checks.unpack(words, 3).tolist() == [[-1, 1, 1], [1, -1, -1]]
    wide = np.zeros((1, 70), dtype=bool)
    wide[0, 64] = True
    assert checks.pack(wide).tolist() == [[0, 1]]


def test_full_ranking_breaks_ties_by_index():
    query = np.array([[1, 1]], dtype=np.int8)
    database = np.array([[1, -1], [-1, 1], [1, 1], [-1, -1]], dtype=np.int8)
    order, dist = checks.full_ranking(query, database)
    assert dist.tolist() == [[1, 1, 0, 2]]
    assert order.tolist() == [[2, 0, 1, 3]]


def test_relevance_is_any_shared_class():
    db = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    assert checks.relevant_mask(np.array([0, 1, 1]), db).tolist() == \
        [False, True, True]


def test_direct_codebook_check_accepts_columns_and_rejects_a_flip():
    h = cb.sylvester(8)
    codewords = h[:, [3, 5]].T.astype(np.int8)
    assert checks.direct_codebook_indices(codewords).tolist() == [3, 5]
    assert checks.check_direct_codebook(codewords, [3, 5]) == []
    assert checks.check_direct_codebook(codewords, [5, 3])
    flipped = codewords.copy()
    flipped[0, 7] *= -1
    assert checks.check_direct_codebook(flipped, [3, 5])


def test_direct_codebook_of_the_program_passes():
    book = cb.build_codebook(64, 16, 7)
    assert checks.check_direct_codebook(book.codewords,
                                        book.selected_indices) == []


def test_projected_codebook_check_by_hand():
    # Rows 1 and 2 of the order-4 matrix are (1,-1,1,-1) and (1,1,-1,-1).
    projection = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.5]])
    codewords = np.array([[1, -1], [1, 1]], dtype=np.int8)
    assert checks.check_projected_codebook(codewords, [1, 2], projection) == []
    assert checks.check_projected_codebook(codewords[::-1], [1, 2], projection)
    assert checks.check_projected_codebook(
        np.array([[1, -1], [1, -1]], dtype=np.int8), [1, 1], projection) == \
        ["duplicate codewords"]
    # A product of exactly zero takes the sign +1.
    zero_first = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert checks.check_projected_codebook(
        np.array([[1, 1]], dtype=np.int8), [1], zero_first) == []


def test_projected_codebook_of_the_program_passes():
    book = cb.build_codebook(32, 40, 3)
    projection = cb.sample_projection(64, 32, 3).values
    assert checks.check_projected_codebook(
        book.codewords, book.selected_indices, projection) == []


def test_min_distance_and_agreement():
    codewords = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1]],
                         dtype=np.int8)
    assert checks.min_distance_bits(codewords) == 2
    labels = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8)
    # Item 1's target is sign(2, 2, 0, 0): only its first two bits count.
    u = np.array([[0.5, 0.5, 0.5, 0.5], [0.1, 0.2, -0.9, 0.9]])
    assert checks.codeword_agreement(u, codewords, labels) == 1.0
    u[0, 3] = -0.1
    assert checks.codeword_agreement(u, codewords, labels) == 0.5


def test_generator_is_seeded():
    spec = gen.DataSpec(classes=4, items=40, dim=6, informative=4,
                        separation=1.0, nuisance=2.0)
    f1, l1 = gen.generate(spec, 1)
    f2, l2 = gen.generate(spec, 1)
    f3, _ = gen.generate(spec, 2)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)
    assert not np.array_equal(f1, f3)
    assert l1.sum(axis=0).tolist() == [10, 10, 10, 10]
    multi = gen.generate(gen.DataSpec(classes=9, items=300, dim=6,
                                      informative=4, separation=1.0,
                                      nuisance=1.0, max_labels=3), 5)[1]
    assert set(multi.sum(axis=1).tolist()) == {1, 2, 3}


def test_self_times_subtract_child_spans():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "attrs": {}}

    trace = [span("cli.train", 0.0, 10.0, None),
             span("trainer.train", 1.0, 9.0, 0),
             span("model.backward", 2.0, 4.0, 1),
             span("model.sgd_step", 5.0, 6.0, 1)]
    times = spans.layer_times(trace)
    assert times["cli.train_s"] == 10.0
    assert times["cli.self_s"] == 2.0
    assert times["trainer.self_s"] == 5.0
    assert times["model.backward_s"] == 2.0
    assert times["model.backward_calls"] == 1
    assert times["model.sgd_step_s"] == 1.0


def test_tracer_restores_what_it_patched():
    class Module:
        @staticmethod
        def double(x):
            return 2 * x

    original = Module.double
    tracer = spans.Tracer()
    tracer.patch(Module, "double", "m.double",
                 attrs=lambda args, result: {"out": result})
    tracer.patch(Module, "missing", "m.missing")
    with tracer.span("outer"):
        assert Module.double(4) == 8
    tracer.unpatch()
    assert Module.double is original
    outer, inner = tracer.spans
    assert inner["name"] == "m.double" and inner["parent"] == 0
    assert inner["attrs"] == {"out": 8}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
