"""The CLI's exit-code contract, as property tests over generated inputs.

Every run of ``cli.main`` returns 0 (ok), 1 (failed check), 2 (bad input)
or 3 (runtime abort) and lets no exception escape; a run that returns 2 or
3 prints exactly one ``error:`` line on stderr, and a run that returns 0
prints none.  The inputs are ``--set`` lists on a tiny ``train`` config,
corpus and embeddings-file bytes, and small byte mutations of a saved
``model.bin`` passed to ``eval``.  Generated sizes, epoch counts included,
stay small so that each case runs in milliseconds.

The TBOX container has no checksum, so a mutated ``model.bin`` may still
load and score (exit 0); only the contract is asserted there.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cachedlstm import cli
from cachedlstm.data import Document, build_vocab
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.serialize import save_model

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])

TRAIN_CORPUS = "0\ta b c\n1\tc d\n0\ta a e\n1\td d b\n0\tb a\n1\te d c\n"
DEV_CORPUS = "0\ta b\n1\td c\n"
WORDS = ["a", "b", "c", "d", "e", "<unk>", "<pad>", "zz"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the fixed inputs, and a nested working directory
    for the runs: a generated relative path (``..`` included) stays inside."""
    root = tmp_path_factory.mktemp("contract")
    (root / "train.tsv").write_text(TRAIN_CORPUS)
    (root / "dev.tsv").write_text(DEV_CORPUS)
    config = {
        "model": {"kind": "clstm", "d": 2, "H": 2, "K": 2, "C": 2, "bidirectional": True},
        "train": {"learning_rate": 0.05, "batch_size": 3, "max_epochs": 1, "seed": 1},
        "data": {"train_path": str(root / "train.tsv"), "dev_path": str(root / "dev.tsv")},
        "output_dir": str(root / "out"),
    }
    (root / "run.json").write_text(json.dumps(config))
    vocab = build_vocab([Document(0, WORDS[:5])])
    model = build_model(ModelConfig(kind="clstm", d=2, H=2, K=2, C=2, bidirectional=True),
                        vocab, seed=0)
    save_model(str(root / "model.bin"), model)
    work = root / "w" / "w"
    work.mkdir(parents=True)
    return root


def _run(workdir, argv) -> int:
    """``cli.main(argv)`` in the working directory; checks the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir / "w" / "w"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert len(errors) == (1 if code in (2, 3) else 0), (code, err.getvalue())
    return code


# -- --set lists on the train config ------------------------------------------

# Values each key accepts, so that a list of several items can still train.
VALID = {
    "model.kind": ['"clstm"', '"lstm"', '"cifg"', '"rnn"', '"cbow"'],
    "model.d": ["1", "3"], "model.H": ["2", "4"], "model.K": ["1", "2"], "model.C": ["2", "3"],
    "model.bidirectional": ["true", "false"], "model.use_bias": ["true", "false"],
    "train.learning_rate": ["0.05", "2", "1e300"], "train.weight_decay": ["0", "1e-3"],
    "train.batch_size": ["1", "4"], "train.max_epochs": ["0", "2"], "train.seed": ["0", "7"],
    "train.gradient_clip_norm": ["null", "0.5"], "train.sort_bucket": ["true", "false"],
    "train.target_dev_acc": ["null", "0.5"], "data.min_count": ["1", "2"],
    "data.embeddings_trainable": ["true", "false"], "output_dir": ["o", '"o 2"'],
}
# Anything else: wrong types, out-of-range numbers, non-JSON, unknown keys.
# No '/' in generated strings, so a generated path is relative to the
# working directory.
LITERALS = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["1e308", "NaN", "Infinity", "-0.1", "2.0", "null", "[]", "{}", "[1]",
                     '"gru"', "", "{", '"']),
    st.text(alphabet="ab.-_ ", max_size=4),
)
SET_ITEMS = st.one_of(
    st.sampled_from(sorted(VALID)).flatmap(lambda key: st.sampled_from(VALID[key]).map(
        lambda value: f"{key}={value}")),
    st.tuples(st.sampled_from(sorted(VALID) + ["data.embeddings_path", "data.test_path",
                                               "model.nope", "nope.d", "model", "model.d.x"]),
              LITERALS).map("=".join),
    st.sampled_from(["model.d", "=", "train.max_epochs==1"]),
)


@CONTRACT
@given(st.lists(SET_ITEMS, max_size=4))
def test_set_lists_keep_the_contract(workdir, items):
    _run(workdir, ["train", str(workdir / "run.json")] + [f"--set={item}" for item in items])


# -- corpus and embeddings-file bytes -----------------------------------------

def _files(line, odd_lines):
    """File bytes: up to six well-formed lines, with at most one odd line
    put in among them, or raw bytes."""
    lines = st.lists(line, min_size=1, max_size=6)
    spliced = st.builds(lambda ls, odd, at: b"\n".join(ls[:at] + odd + ls[at:]), lines,
                        st.lists(odd_lines, max_size=1), st.integers(0, 6))
    return st.one_of(spliced, st.binary(max_size=40))


TOKENS = st.sampled_from(WORDS + ["é", "<sssss>"])
CORPORA = _files(
    st.builds(lambda label, words: f"{label}\t{' '.join(words)}".encode(),
              st.sampled_from(["0", "1"]), st.lists(TOKENS, min_size=1, max_size=4)),
    st.one_of(st.sampled_from([b"", b"\r", b"\t", b"2\ta", b"-1\ta", b"x\ta", b" 0\ta",
                               b"1.0\ta", b"0\t\r", b"1\ta\tb", b"0\ta \xc3", b"\xff\xfe",
                               b"0\ta\x00b", b"0 a"]),
              st.binary(max_size=8)),
)


@CONTRACT
@given(CORPORA)
def test_corpus_bytes_keep_the_contract(workdir, corpus):
    path = workdir / "gen.tsv"
    path.write_bytes(corpus)
    _run(workdir, ["train", str(workdir / "run.json"), f"--set=data.train_path={path}"])


EMBEDDINGS = _files(
    st.builds(lambda token, values: " ".join([token] + values).encode(), TOKENS,
              st.lists(st.floats(-2, 2).map(repr), min_size=2, max_size=2)),
    st.one_of(st.sampled_from([b"", b"\r", b"a", b"a 1", b"a 1 2 3", b"a nan 1", b"a 1 inf",
                               b"a 1e400 1", b"a x 1", b"a  1 2", b"a 1 2\r", b"\xff 1 2",
                               b"a 0x1 1", b"a 1_0 1"]),
              st.binary(max_size=8)),
)


@CONTRACT
@given(EMBEDDINGS)
def test_embeddings_bytes_keep_the_contract(workdir, vectors):
    path = workdir / "vectors.txt"
    path.write_bytes(vectors)
    _run(workdir, ["train", str(workdir / "run.json"), f"--set=data.embeddings_path={path}"])


# -- byte mutations of a saved model ------------------------------------------

@st.composite
def mutations(draw, size):
    """A 1-3-byte overwrite, a truncation, or a 1-3-byte insertion of a
    ``size``-byte file, as a function of its bytes."""
    kind = draw(st.sampled_from(["overwrite", "truncate", "insert"]))
    at = draw(st.integers(0, size - 1))
    if kind == "truncate":
        return lambda blob: blob[:at]
    patch = draw(st.binary(min_size=1, max_size=3))
    if kind == "insert":
        return lambda blob: blob[:at] + patch + blob[at:]
    return lambda blob: blob[:at] + patch + blob[at + len(patch):]


@CONTRACT
@given(st.data())
def test_mutated_model_keeps_the_contract(workdir, data):
    blob = (workdir / "model.bin").read_bytes()
    path = workdir / "mutated.bin"
    path.write_bytes(data.draw(mutations(len(blob)))(blob))
    _run(workdir, ["eval", str(path), str(workdir / "dev.tsv")])
