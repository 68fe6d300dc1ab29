"""One error rule: every error the library raises on purpose is a BdemmError.

A caller catches one class.  A bad caller value raises a library class that
also derives from the builtin ``ValueError`` or ``TypeError`` such a check
would raise, values numpy cannot read as numbers are converted in one
place, and the command line catches no builtin error around library calls
except ``OSError``.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import bdemm
from bdemm import (
    BdemmError,
    GaussianBelief,
    GenericStateSpaceModel,
    GPTSModel,
    IntelState,
    KfEnsembleState,
    LinearGaussianModel,
    ParticleEnsemble,
    PointEstimate,
    PredictiveGaussian,
    RunReport,
    SmcEnsembleState,
    ToyConfig,
    WeightHistory,
    WeightVector,
    WTTConfig,
    bma_point_estimate,
    default_markov_matrix,
    effective_sample_size,
    errors,
    gaussian_log_evidence,
    gaussian_noise,
    gp_predict_next,
    intel_step,
    kf_bdemm_step,
    kf_predict,
    linear_gaussian_ssm,
    mse,
    perturb_pool,
    resample,
    smc_bdemm_step,
    student_t_noise,
    uniform_noise,
    update_model_weights_log,
    weight_step,
)
from bdemm.core import checked_cov

SOURCES = sorted(Path(bdemm.__file__).parent.glob("*.py"))

# helpers that raise the error class their caller passes in, and the
# position of that argument
PASSED_ERROR = {"_count": 1, "_floats": 3, "_real": 2}


def _library_error(node) -> bool:
    cls = getattr(errors, node.id, None) if isinstance(node, ast.Name) else None
    return isinstance(cls, type) and issubclass(cls, BdemmError)


def _scoped_nodes(tree):
    """Yield every node with the names of the classes and functions around it."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_every_raise_names_a_library_error():
    bad = []
    for path in SOURCES:
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare re-raise
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", ast.dump(exc))
            if _library_error(exc):
                continue
            if name == "SystemExit" and scope[:1] == ("_Parser",):
                continue  # argparse's usage exit, mapped to status 1
            if name == "error" and scope and scope[-1] in PASSED_ERROR:
                continue  # the call sites are checked below
            bad.append("%s:%d raises %s" % (path.name, node.lineno, name))
    assert bad == []


def test_every_helper_call_passes_a_library_error():
    defaults, bad, calls = {}, [], 0
    for path in SOURCES:
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in PASSED_ERROR:
                names = [a.arg for a in node.args.args]
                defaults[node.name] = dict(zip(
                    names[::-1], node.args.defaults[::-1])).get("error")
            name = getattr(getattr(node, "func", None), "id", None)
            if not (isinstance(node, ast.Call) and name in PASSED_ERROR):
                continue
            i = PASSED_ERROR[name]
            passed = node.args[i:i + 1] + [
                k.value for k in node.keywords if k.arg == "error"]
            if (passed and getattr(passed[0], "id", None) == "error"
                    and scope and scope[-1] in PASSED_ERROR):
                continue  # a helper forwards its own caller's error
            calls += 1
            if passed and not _library_error(passed[0]):
                bad.append("%s:%d passes %s" % (
                    path.name, node.lineno, ast.unparse(passed[0])))
    assert calls and bad == []
    # a call that passes no error gets the default
    assert set(defaults) == set(PASSED_ERROR)
    assert all(d is None or _library_error(d) for d in defaults.values())


def _boundary_handlers():
    """The except clauses of the command line, of stream.build_engine and of
    toy.run_toy_experiment, which records a failed run."""
    inside = {"stream.py": "build_engine", "toy.py": "run_toy_experiment"}
    for path in SOURCES:
        if path.name not in ("cli.py", "stream.py", "toy.py"):
            continue
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and (
                    path.name == "cli.py" or inside[path.name] in scope):
                yield path.name, node


def test_the_boundary_catches_no_builtin_error_but_os_and_memory_errors():
    # a file error exits 1, and a size past memory exits 2, both with the
    # command's own message; any other builtin error is a library fault
    caught, files = [], set()
    for name, handler in _boundary_handlers():
        files.add(name)
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        caught += [(name, t.id) for t in types if not _library_error(t)]
    assert files == {"cli.py", "stream.py", "toy.py"}
    assert set(caught) == {("cli.py", "OSError"), ("cli.py", "MemoryError")}


NOMINAL = GPTSModel(0.0, 1.0, 1.0, 0.1, 3)

# each call, and the builtin class whose handlers must still catch its error
BAD_VALUES = {
    "weights-word": (lambda: WeightVector("abc"), ValueError),
    "weights-sum": (lambda: WeightVector([0.5, 0.6]), ValueError),
    "markov-word": (lambda: WTTConfig.markov("abc"), ValueError),
    "urn-word": (lambda: WTTConfig.polya_urn([1, "x"]), ValueError),
    "constant-word": (lambda: WTTConfig.constant("abc"), ValueError),
    "belief-word": (lambda: GaussianBelief("a", 1.0), ValueError),
    "cov-word": (lambda: checked_cov("a"), ValueError),
    "point-word": (lambda: PointEstimate("a"), ValueError),
    "linear-model-word": (lambda: LinearGaussianModel("a", 1, 1, 1),
                          ValueError),
    "particles-word": (lambda: ParticleEnsemble("a", [1.0]), ValueError),
    "particle-weights-negative": (lambda: ParticleEnsemble(
        np.zeros((2, 1)), [1.5, -0.5]), ValueError),
    "gp-model-word": (lambda: GPTSModel("a", 1, 1, 0.1, 3), TypeError),
    "gaussian-noise-word": (lambda: gaussian_noise("a"), TypeError),
    "uniform-noise-word": (lambda: uniform_noise("a", 1), TypeError),
    "student-t-noise-word": (lambda: student_t_noise("a"), TypeError),
    "toy-seed-negative": (lambda: ToyConfig(seed=-1), ValueError),
    "toy-seed-word": (lambda: ToyConfig(seed="a"), TypeError),
    "toy-noise-word": (lambda: ToyConfig(gauss_noise_var="a"), TypeError),
    "pool-empty": (lambda: perturb_pool(NOMINAL, []), ValueError),
    "pool-word": (lambda: perturb_pool(NOMINAL, ["a"]), ValueError),
    "history-row": (lambda: WeightHistory(1, [1.0]), TypeError),
    "t-next-word": (lambda: gp_predict_next(NOMINAL, [0.0], [1.0], "a"),
                    ValueError),
    "intel-y-word": (lambda: intel_step(IntelState.initial(k=1), [NOMINAL],
                                        "a", 1.0, WTTConfig.identity()),
                     ValueError),
    "intel-t-word": (lambda: intel_step(IntelState.initial(k=1), [NOMINAL],
                                        1.0, "a", WTTConfig.identity()),
                     ValueError),
    "intel-buffer-word": (lambda: IntelState(
        ((0.0, "a"),), IntelState.initial(k=1).history), ValueError),
    "mse-word": (lambda: mse("a", "b"), ValueError),
    "forecast-variance": (lambda: PredictiveGaussian(0.0, -1.0), ValueError),
    "forecast-mean-word": (lambda: PredictiveGaussian("a", 1.0), TypeError),
    "logpdf-word": (lambda: PredictiveGaussian(0.0, 1.0).logpdf("a"),
                    ValueError),
    "logpdf-list": (lambda: PredictiveGaussian(0.0, 1.0).logpdf([1.0]),
                    TypeError),
    "floor-nan": (lambda: update_model_weights_log(
        WeightVector([0.5, 0.5]), [0.0, 0.0], np.nan), ValueError),
    "evidence-word": (lambda: update_model_weights_log(
        WeightVector([0.5, 0.5]), ["a", 0.0]), ValueError),
    "cov-empty": (lambda: checked_cov(np.zeros((0, 0))), ValueError),
    "cov-nan": (lambda: checked_cov([[np.nan]]), ValueError),
    "history-width": (lambda: WeightHistory(WeightVector([0.5, 0.5]), [1.0]),
                      ValueError),
    "belief-mean-matrix": (lambda: GaussianBelief([[0.0]], [[1.0]]),
                           ValueError),
    "belief-mean-inf": (lambda: GaussianBelief([np.inf], [[1.0]]),
                        ValueError),
    "point-matrix": (lambda: PointEstimate([[1.0]]), ValueError),
    "bma-empty": (lambda: bma_point_estimate([], WeightVector([1.0])),
                  ValueError),
    "kf-predict-dims": (lambda: kf_predict(
        LinearGaussianModel(1.0, 1.0, 1.0, 1.0),
        GaussianBelief([0.0, 0.0], np.eye(2))), ValueError),
    "particles-rank": (lambda: ParticleEnsemble(np.zeros((2, 1, 1)),
                                                [0.5, 0.5]), ValueError),
    "likelihood-length": (lambda: smc_bdemm_step(
        SmcEnsembleState.initial(np.zeros((3, 1)), k=1),
        [GenericStateSpaceModel(lambda x, t, rng: x,
                                lambda y, x, t: np.zeros(2))],
        0.0, 1, WTTConfig.identity(), np.random.default_rng(0)), ValueError),
    "markov-stay-range": (lambda: default_markov_matrix(2, 1.5), ValueError),
    "markov-stay-word": (lambda: default_markov_matrix(2, "a"), ValueError),
    "markov-stay-list": (lambda: default_markov_matrix(2, [0.5]), ValueError),
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_a_bad_value_raises_a_library_error_that_is_still_the_builtin(name):
    call, builtin = BAD_VALUES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BdemmError) as info:
            call()
    assert isinstance(info.value, builtin)


@pytest.mark.parametrize("value", ["half", 1j, {}, 10**400, [1.0, [2.0]]],
                         ids=["word", "complex", "dict", "huge-int", "ragged"])
def test_a_value_numpy_cannot_read_raises_the_callers_error(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidInputError, match="weights"):
            WeightVector(value)
        with pytest.raises(errors.ConfigMismatchError, match="alpha"):
            WTTConfig.forgetting(value)


# values whose trouble would otherwise show late, or as a builtin error
# that is neither a ValueError nor a TypeError
LATE_OR_RAW = {
    # the batch's seed sequence takes integers only
    "toy-seed-fraction": lambda: ToyConfig(seed=2.5),
    # the density would be NaN everywhere
    "gaussian-noise-nan": lambda: gaussian_noise(np.nan),
    # 2 pi var overflows: the density would be -inf everywhere
    "gaussian-noise-wide": lambda: gaussian_noise(2.9e307),
    "gaussian-noise-inf": lambda: gaussian_noise(np.inf),
    # a legacy generator has no bit generator to advance
    "legacy-generator": lambda: smc_bdemm_step(
        SmcEnsembleState.initial(np.zeros((5, 1)), k=1),
        [linear_gaussian_ssm(1.0, 1.0, 1.0, 1.0)], 0.0, 1,
        WTTConfig.identity(), np.random.RandomState(0)),
}



def _floor_calls(floor):
    """Every path that applies a weight floor, called with ``floor``."""
    prior = WeightVector([0.5, 0.5])
    return {
        "update": lambda: update_model_weights_log(prior, [0.0, 0.0], floor),
        "weight-step": lambda: weight_step(
            WTTConfig.identity(), WeightHistory.start(prior), [0.0, 0.0],
            floor),
        "kf-step": lambda: kf_bdemm_step(
            KfEnsembleState.initial(GaussianBelief([0.0], [[1.0]]), k=1),
            [LinearGaussianModel(1.0, 1.0, 1.0, 1.0)], 0.0,
            WTTConfig.identity(), weight_floor=floor),
        "smc-step": lambda: smc_bdemm_step(
            SmcEnsembleState.initial(np.zeros((5, 1)), k=1),
            [linear_gaussian_ssm(1.0, 1.0, 1.0, 1.0)], 0.0, 1,
            WTTConfig.identity(), np.random.default_rng(0),
            weight_floor=floor),
        "intel-step": lambda: intel_step(
            IntelState.initial(k=1), [NOMINAL], 1.0, 1.0,
            WTTConfig.identity(), weight_floor=floor),
    }


# a floor that is not a number once escaped its range check as a TypeError
LATE_OR_RAW.update({
    "floor-%s-%s" % (label, path): call
    for label, floor in (("word", "abc"), ("none", None), ("list", [0.1]))
    for path, call in _floor_calls(floor).items()})


@pytest.mark.parametrize("name", list(LATE_OR_RAW))
def test_a_value_that_failed_late_or_raw_raises_invalid_input(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidInputError):
            LATE_OR_RAW[name]()


def _complex_calls(c):
    """Every converter of caller numbers, handed the numpy complex ``c``:
    bare, in a complex array, in an object array or in a list."""
    belief = GaussianBelief(0.0, 1.0)
    return {
        "weights-array": lambda: WeightVector(np.array([c, 0.5])),
        "weights-list": lambda: WeightVector([c, 0.5]),
        # numpy reads both as object arrays, which hold c as it is
        "weights-object-array": lambda: WeightVector(
            np.array([c, 0.5], dtype=object)),
        "weights-object-list": lambda: WeightVector([c, None]),
        "uniform-count": lambda: WeightVector.uniform(2 * c),
        "belief-mean": lambda: GaussianBelief(c, 1.0),
        "model-A": lambda: LinearGaussianModel(c, 1.0, 1.0, 1.0),
        "gp-window": lambda: GPTSModel(0.0, 1.0, 1.0, 0.1, 6 * c),
        "forgetting-alpha": lambda: WTTConfig.forgetting(c),
        "gaussian-noise": lambda: gaussian_noise(c),
        "toy-noise": lambda: ToyConfig(gauss_noise_var=c),
        "resample-weights": lambda: resample(
            np.zeros(2), [c, 0.5], 2, np.random.default_rng(0)),
        "resample-count": lambda: resample(
            np.zeros(2), [0.5, 0.5], 4 * c, np.random.default_rng(0)),
        "mse": lambda: mse([c], [1.0]),
        "ess": lambda: effective_sample_size([c, 0.5]),
        "forecast": lambda: PredictiveGaussian(c, 1.0),
        "log-evidence": lambda: gaussian_log_evidence([c], belief, 1.0, 1.0),
        "kf-y": lambda: kf_bdemm_step(
            KfEnsembleState.initial(belief, k=1),
            [LinearGaussianModel(1.0, 1.0, 1.0, 1.0)], c,
            WTTConfig.identity()),
        "intel-y": lambda: intel_step(IntelState.initial(k=1), [NOMINAL], c,
                                      1.0, WTTConfig.identity()),
        "intel-t": lambda: intel_step(IntelState.initial(k=1), [NOMINAL],
                                      1.0, 2 * c, WTTConfig.identity()),
        **{"floor-" + path: call
           for path, call in _floor_calls(c / 5).items()},
        "floor-array": lambda: weight_step(
            WTTConfig.identity(), WeightHistory.start(WeightVector([0.5, 0.5])),
            [0.0, 0.0], np.array(c / 5)),
    }


@pytest.mark.parametrize("name", list(_complex_calls(0.5)))
@pytest.mark.parametrize("kind", [np.complex64, np.complex128])
def test_a_numpy_complex_value_raises_a_library_error(kind, name):
    # numpy would cast it to a real with a ComplexWarning, dropping its
    # imaginary part, or, for a floor, compute complex weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BdemmError):
            _complex_calls(kind(0.5))[name]()


# every frozen type that holds an array, and a factory of equal values
ARRAY_HOLDERS = {
    "WeightVector": lambda: WeightVector([0.5, 0.5]),
    "WeightHistory": lambda: WeightHistory.start(WeightVector([0.5, 0.5])),
    "GaussianBelief": lambda: GaussianBelief([0.0], [[1.0]]),
    "PointEstimate": lambda: PointEstimate([1.0]),
    "ParticleEnsemble": lambda: ParticleEnsemble.equal_weighted([0.0, 1.0]),
    "KfEnsembleState": lambda: KfEnsembleState.initial(
        GaussianBelief([0.0], [[1.0]]), k=2),
    "SmcEnsembleState": lambda: SmcEnsembleState.initial(np.zeros((3, 1)),
                                                         k=2),
    "IntelState": lambda: IntelState.initial(k=2),
    "WTTConfig": lambda: WTTConfig.markov([[0.9, 0.1], [0.1, 0.9]]),
    "LinearGaussianModel": lambda: LinearGaussianModel(1.0, 1.0, 1.0, 1.0),
    "RunReport": lambda: RunReport(ToyConfig(), (), {}, {}, {},
                                   np.zeros((1, 2)), ()),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDERS))
def test_a_type_that_holds_an_array_compares_and_hashes_by_identity(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


@pytest.mark.parametrize("build", [
    lambda: GPTSModel(0.0, 1.0, 1.0, 0.1, 3),
    lambda: PredictiveGaussian(0.0, 1.0),
    lambda: ToyConfig(runs=2),
], ids=["GPTSModel", "PredictiveGaussian", "ToyConfig"])
def test_a_type_that_holds_only_scalars_keeps_value_equality(build):
    # the GP solve cache keys on pools of equal-valued models
    a, b = build(), build()
    assert a == b and hash(a) == hash(b)
