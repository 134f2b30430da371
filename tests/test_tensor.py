import ast
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmatch.model import EncoderConfig, encoder_forward, init_params
from qmatch.tensor import (
    UPDATE_BLOCK,
    ParameterError,
    ShapeError,
    Tensor,
    backward,
    batch_norm_train,
    bce_with_logits,
    cross_entropy_rows,
    finite_difference_check,
    l2_normalize_rows,
    matmul,
    maxout_rows,
    no_grad,
    softmax_rows,
    update_blocks,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_projection(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((4, 2), 2), requires_grad=True)
        err = finite_difference_check(lambda: (a @ b).sum(), [a, b], step=1e-6)
        assert err <= 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        out = l2_normalize_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_random_rows_unit_norm(self):
        out = l2_normalize_rows(Tensor(rand((5, 7), 3)))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        z = Tensor(rand((4, 5), 4), requires_grad=True)
        w = rand((4, 5), 5)
        err = finite_difference_check(
            lambda: (l2_normalize_rows(z) * Tensor(w)).sum(), [z])
        assert err <= 1e-6


class TestSoftmax:
    def test_uniform_logits(self):
        for temp in (0.04, 1.0, 7.0):
            out = softmax_rows(Tensor([[2.5, 2.5, 2.5]]), temperature=temp)
            np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_saturation_no_overflow(self):
        out = softmax_rows(Tensor([[500.0, -500.0]]), temperature=1.0)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-200)
        assert np.all(np.isfinite(out.data))

    def test_sharpening_increases_max_probability(self):
        logits = Tensor([[0.3, -0.1, 0.8, 0.2]])
        sharp = softmax_rows(logits, temperature=0.04).data.max()
        soft = softmax_rows(logits, temperature=1.0).data.max()
        assert sharp > soft

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            softmax_rows(Tensor([[1.0, 2.0]]), temperature=0.0)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (3, 5), elements=st.floats(-1e3, 1e3)))
    def test_rows_sum_to_one(self, logits):
        out = softmax_rows(Tensor(logits), temperature=0.7)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (2, 6), elements=st.floats(-50, 50)))
    def test_l2_rows_unit_or_zero(self, z):
        out = l2_normalize_rows(Tensor(z)).data
        norms = np.linalg.norm(out, axis=1)
        zero_rows = np.linalg.norm(z, axis=1) <= 1e-12
        assert np.all((np.abs(norms - 1.0) <= 1e-9) | zero_rows)


class TestCrossEntropy:
    def test_one_hot_minimum(self):
        p = Tensor([[0.0, 1.0, 0.0]])
        out = cross_entropy_rows(p, p)
        assert abs(out.data) < 1e-10

    def test_self_entropy(self):
        p = np.array([[0.2, 0.5, 0.3]])
        out = cross_entropy_rows(Tensor(p), Tensor(p))
        expected = -(p * np.log(p)).sum()
        np.testing.assert_allclose(out.data, expected, rtol=1e-9)

    def test_gibbs_inequality_sweep(self):
        rng = np.random.default_rng(7)
        target = rng.dirichlet(np.ones(6), size=4)
        base = float(cross_entropy_rows(Tensor(target), Tensor(target)).data)
        for _ in range(100):
            pred = rng.dirichlet(np.ones(6), size=4)
            assert float(cross_entropy_rows(Tensor(target), Tensor(pred)).data) >= base - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_gibbs_property(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5), size=3)
        q = rng.dirichlet(np.ones(5), size=3)
        ce_pq = float(cross_entropy_rows(Tensor(p), Tensor(q)).data)
        ce_pp = float(cross_entropy_rows(Tensor(p), Tensor(p)).data)
        assert ce_pq >= ce_pp - 1e-12


class TestBackward:
    def test_sum_gradient(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(w.sum())
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        w = Tensor([1.5, -2.0, 0.5], requires_grad=True)
        backward((w * w).sum() * 0.5)
        np.testing.assert_allclose(w.grad, w.data)

    def test_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(w + w)

    def test_tape_cleared_after_backward(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = (w * w).sum()
        backward(loss)
        assert loss._parents == () and loss._backward is None

    def test_reused_node_accumulates(self):
        # f(w) = w*w + 3*w, f'(w) = 2w + 3
        w = Tensor([2.0], requires_grad=True)
        backward((w * w + w * 3.0).sum())
        np.testing.assert_allclose(w.grad, [7.0])

    def test_determinism(self):
        w = Tensor(rand((4, 4), 9), requires_grad=True)
        grads = []
        for _ in range(2):
            w.zero_grad()
            backward(softmax_rows(w, temperature=0.3).sum())
            grads.append(w.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_backward_frees_activations_as_it_goes(self):
        params = init_params(EncoderConfig(input_dim=32, layer_widths=(128,) * 4,
                                           maxout_k=4), seed=1)
        x = Tensor(rand((32, 32), 2))
        tracemalloc.start()
        try:
            loss = encoder_forward(params, x).sum()  # only the loss keeps the graph alive
            activations, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = sum(t.grad.nbytes for t in params.tensors.values() if t.grad is not None)
        # keeping the whole graph to the end holds every activation, every
        # intermediate gradient and every parameter gradient at once
        assert peak < activations + grads

    def test_first_gradient_kept_without_a_copy(self):
        w = Tensor(rand((256, 512), 3), requires_grad=True)
        x = Tensor(rand((4, 256), 4))
        loss = (x @ w).sum()
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.grad.nbytes

    def test_shared_first_gradient_is_never_written_through(self):
        a = Tensor(rand((3, 4), 5), requires_grad=True)
        b = Tensor(rand((3, 4), 6), requires_grad=True)
        c = Tensor(rand((3, 4), 7))
        backward(((a + b) * c).sum())  # add hands both operands the same gradient
        b_first = b.grad.copy()
        backward((a * a).sum())  # accumulates into a only
        np.testing.assert_array_equal(b.grad, b_first)
        np.testing.assert_allclose(a.grad, c.data + 2 * a.data)

    def test_leaf_reached_through_add_and_a_second_path(self):
        a = Tensor(rand((3, 4), 8), requires_grad=True)
        b = Tensor(rand((3, 4), 9), requires_grad=True)
        c = Tensor(rand((3, 4), 10))
        f = lambda: ((a + b) * c).sum() + (softmax_rows(a * b, temperature=0.5) * c).sum()
        assert finite_difference_check(f, [a, b]) <= 1e-6


class TestNoGrad:
    @staticmethod
    def forward(w, x):
        return softmax_rows(l2_normalize_rows(maxout_rows(x @ w, 2)), temperature=0.3)

    def test_records_nothing_and_computes_the_same(self):
        w = Tensor(rand((4, 6), 11), requires_grad=True)
        x = Tensor(rand((5, 4), 12))
        recorded = self.forward(w, x)
        with no_grad():
            plain = self.forward(w, x)
        assert recorded._parents and recorded.requires_grad
        assert plain._parents == () and plain._backward is None and not plain.requires_grad
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_state_restored_after_exception_and_nesting(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert (w * w)._parents == ()  # still off after the inner block
                raise RuntimeError("inside no_grad")
        assert (w * w)._parents == (w, w)


class TestFiniteDifference:
    def test_linear(self):
        w = Tensor(rand(4, 0), requires_grad=True)
        c = Tensor(rand(4, 1))
        assert finite_difference_check(lambda: (w * c).sum(), [w]) <= 1e-10

    def test_softmax_cross_entropy(self):
        logits = Tensor(rand((3, 5), 2), requires_grad=True)
        target = Tensor(np.random.default_rng(3).dirichlet(np.ones(5), size=3))
        err = finite_difference_check(
            lambda: cross_entropy_rows(target, softmax_rows(logits, 0.5)), [logits])
        assert err <= 1e-6

    def test_batch_norm_train(self):
        x = Tensor(rand((6, 4), 5), requires_grad=True)
        gamma = Tensor(np.ones(4) + 0.1 * rand(4, 6), requires_grad=True)
        beta = Tensor(0.1 * rand(4, 7), requires_grad=True)
        w = rand((6, 4), 8)

        def f():
            out, _, _ = batch_norm_train(x, gamma, beta)
            return (out * Tensor(w)).sum()

        assert finite_difference_check(f, [x, gamma, beta]) <= 1e-5


class TestMaxout:
    def test_group_max(self):
        out = maxout_rows(Tensor([[1.0, -2.0, 3.0, 0.0]]), k=4)
        np.testing.assert_array_equal(out.data, [[3.0]])

    def test_gradient_routes_to_argmax_lowest_index_on_ties(self):
        x = Tensor([[2.0, 2.0, 1.0, 0.0]], requires_grad=True)
        backward(maxout_rows(x, k=4).sum())
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 0.0]])

    def test_bad_group_size(self):
        with pytest.raises(ShapeError):
            maxout_rows(Tensor(np.zeros((2, 5))), k=4)

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_forward_bit_identical_to_group_reduction(self, k):
        x = rand((6, 20 * k), 16)
        x[0, :k] = 1.5  # a fully tied group
        out = maxout_rows(Tensor(x), k)
        expected = x.reshape(6, 20, k).max(axis=2)
        np.testing.assert_array_equal(out.data.view(np.uint64), expected.view(np.uint64))

    def test_gradient_on_exact_ties_per_group(self):
        x = Tensor([[1.0, 3.0, 3.0, 0.0, 5.0, 5.0, 5.0, 5.0],
                    [-1.0, -2.0, -1.0, -1.0, 0.0, 2.0, 1.0, 2.0]], requires_grad=True)
        backward(maxout_rows(x, k=4).sum())
        np.testing.assert_array_equal(x.grad, [[0, 1, 0, 0, 1, 0, 0, 0],
                                               [1, 0, 0, 0, 0, 1, 0, 0]])

    def test_nan_propagates_within_its_group(self):
        x = Tensor([[1.0, np.nan, 3.0, 2.0, 4.0, 0.0, 1.0, 2.0]], requires_grad=True)
        out = maxout_rows(x, k=4)
        assert np.isnan(out.data[0, 0])
        assert out.data[0, 1] == 4.0
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[0, 1, 0, 0, 1, 0, 0, 0]])

    def test_gradient(self):
        x = Tensor(rand((3, 8), 11), requires_grad=True)
        w = rand((3, 2), 12)
        err = finite_difference_check(
            lambda: (maxout_rows(x, 4) * Tensor(w)).sum(), [x])
        assert err <= 1e-6


class TestUpdateBlocks:
    def test_blocks_are_aligned_views_covering_the_arrays(self):
        a = np.zeros((3, UPDATE_BLOCK // 2 + 1))
        b = np.arange(a.size, dtype=float).reshape(a.shape)
        sizes = []
        for x, y in update_blocks(a, b):
            sizes.append(x.size)
            np.add(x, y, out=x)
        assert sizes == [UPDATE_BLOCK, a.size - UPDATE_BLOCK]
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_contiguous_and_mismatched(self):
        with pytest.raises(ValueError, match="contiguous"):
            next(update_blocks(np.zeros((4, 3)).T))
        with pytest.raises(ShapeError):
            next(update_blocks(np.zeros(4), np.zeros(5)))


class TestBCE:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        t = (rng.random((4, 3)) < 0.5).astype(float)
        sig = 1 / (1 + np.exp(-x))
        naive = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
        out = bce_with_logits(Tensor(x), Tensor(t))
        np.testing.assert_allclose(out.data, naive, rtol=1e-10)

    def test_gradient(self):
        x = Tensor(rand((3, 4), 14), requires_grad=True)
        t = Tensor((rand((3, 4), 15) > 0).astype(float))
        assert finite_difference_check(lambda: bce_with_logits(x, t), [x]) <= 1e-6


def test_float32_selectable():
    t = Tensor([1.0, 2.0], dtype=np.float32)
    assert t.data.dtype == np.float32


def test_autograd_internals_stay_in_tensor_module():
    """No package module but tensor.py imports a private name from it."""
    src = Path(__file__).resolve().parents[1] / "src" / "qmatch"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("tensor", "qmatch.tensor")):
                offenders += [f"{path.name}:{node.lineno} {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders


def test_package_imports_are_used():
    """No package module but __init__.py imports a name it never references,
    unless the import line carries `# noqa: F401`."""
    src = Path(__file__).resolve().parents[1] / "src" / "qmatch"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    offenders.append(f"{path.name}:{alias.lineno} {name}")
    assert not offenders, offenders


def test_runtime_dependencies_are_numpy_alone():
    """The non-stdlib modules that src/qmatch imports are exactly pyproject.toml's
    runtime dependencies, and those are numpy alone."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "qmatch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"qmatch"}
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared}
    assert third_party == names == {"numpy"}


# Public names that keep no caller in src/qmatch or bench/, each with its reason.
UNCALLED_PUBLIC_NAMES = {
    "finite_difference_check": "the gradient oracle the tests use",
    "collision_probability": "the paper's published collision probability",
    "teacher_entropy": "the loss lower bound for the per-epoch run log (ROADMAP item 2)",
    "EmbeddingQueue.mean_pairwise_cosine": "the collapse signal for the run log (ROADMAP item 2)",
    "AdamW.state_arrays": "the optimizer state of an exact resume (ROADMAP item 4)",
    "EmbeddingQueue.ordered": "the FIFO order the queue tests compare",
    "save_csv": "the fixture writer, and the other half of the load_csv round trip",
}


def _referenced_names(tree: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_public_names_have_a_caller():
    """Every public module-level function or class, and every public method,
    in src/qmatch is referenced somewhere in src/qmatch or bench/ outside its
    own definition, or is listed in UNCALLED_PUBLIC_NAMES.  String constants in
    bench/ count, since bench/layers.py names the functions it traces."""
    root = Path(__file__).resolve().parents[1]
    refs: Counter = Counter()
    defined = []  # (qualified name, name, references inside its own definition)
    for path in sorted((root / "src" / "qmatch").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _referenced_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                found += [(m, f"{node.name}.{m.name}") for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            defined += [(qualified, item.name, _referenced_names(item)[item.name])
                        for item, qualified in found if not item.name.startswith("_")]
    for path in sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _referenced_names(tree)
        refs.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    uncalled = sorted(qualified for qualified, name, own in defined
                      if refs[name] == own and qualified not in UNCALLED_PUBLIC_NAMES)
    assert not uncalled, uncalled
