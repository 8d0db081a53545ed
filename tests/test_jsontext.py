"""The JSON renderer against ``json.dumps``, the scenario digest against its definition, and the file writer against ``open``.

The first two are properties over generated inputs: the renderer's text
must equal ``json.dumps`` with an indent of 2, and ``Scenario.digest``
must equal the SHA-256 of ``json.dumps(to_dict(), sort_keys=True,
separators=(",", ":"))``.  ``write_text`` must write the bytes a text-mode
``open`` writes.
"""

import functools
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sembit import LogisticParams, ParamTable, Scenario, Scheme, channel
from sembit.jsontext import Verbatim, indented, write_text

# Floats whose reprs are the least plain, and the non-finite values.
ODD_FLOATS = [-0.0, 5e-324, 1e16, 1e-05, math.inf, -math.inf, math.nan]

keys = st.one_of(
    st.text(),  # any unicode, escapes and control characters included
    st.sampled_from(['"', "\\", "\n\t\x00", "sigma σ", " ", "\ud800"]),
    st.sampled_from(list(Scheme)),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from(ODD_FLOATS),
    st.floats().map(np.float64),
    keys,
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=trees, sort_keys=st.booleans())
@example(tree={}, sort_keys=False)
@example(tree=(), sort_keys=False)
@example(tree={"b": [{}], "a": {}, "c": [[], {}, ()]}, sort_keys=True)
def test_indented_equals_json_dumps(tree, sort_keys):
    assert indented(tree, sort_keys=sort_keys) == json.dumps(tree, indent=2, sort_keys=sort_keys)


@settings(max_examples=100, deadline=None)
@given(tree=trees, inner=trees, sort_keys=st.booleans())
def test_verbatim_text_renders_as_its_value(tree, inner, sort_keys):
    # A value's text rendered at the top level, inserted at any depth.
    payload = {"a": [tree, {"b": inner}]}
    spliced = {"a": [tree, {"b": Verbatim(indented(inner, sort_keys=sort_keys))}]}
    assert indented(spliced, sort_keys=sort_keys) == indented(payload, sort_keys=sort_keys)


@pytest.mark.parametrize(
    "tree",
    [{1: "int key"}, {None: 0}, {"a": {2.5: 1}}, [object()], {"a": {1, 2}}, b"bytes", 1j,
     np.float32(0.5), np.int64(3), np.bool_(True)],
    ids=["int-key", "none-key", "nested-float-key", "object", "set", "bytes", "complex",
         "float32", "int64", "np-bool"],
)
def test_non_str_keys_and_unsupported_objects_raise_type_error(tree):
    with pytest.raises(TypeError):
        indented(tree)


def canonical_digest(scenario: Scenario) -> str:
    """SHA-256 of the scenario's canonical JSON, encoded whole."""
    blob = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def positive(lo, hi):
    """Floats in [lo, hi], or the whole numbers among them as ints."""
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


@st.composite
def tables(draw):
    ks = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True))
    entries = []
    for k in ks:
        entries.append(LogisticParams(
            k=k,
            a_low=draw(st.sampled_from([0.0, -0.0, 0.1, 0.25])),
            a_high=draw(st.sampled_from([1.0, 1, 0.9, 0.95])),
            growth=draw(positive(1e-3, 5.0)),
            offset=draw(st.one_of(st.floats(-20.0, 20.0), st.integers(-20, 20))),
        ))
    return ParamTable(entries)


@st.composite
def scenarios(draw):
    table = draw(st.one_of(st.just(None), tables()))
    fields = {
        "total_bandwidth": draw(positive(1.0, 1e9)),
        "max_power": draw(positive(1e-3, 1e3)),
        "noise_psd": draw(st.floats(1e-21, 1e-12)),
        "min_similarity": draw(st.one_of(st.sampled_from([0.0, -0.0, 0]), st.floats(0.0, 0.99))),
        "d_s": draw(positive(1.0, 1e3)),
        "d_b": draw(positive(1.0, 1e3)),
        "pathloss_ref": draw(st.floats(1e-6, 1.0)),
        "pathloss_exp": draw(positive(1.0, 6.0)),
    }
    if table is None:
        return Scenario(k=draw(st.sampled_from(Scenario().params.lengths)), **fields)
    return Scenario(k=draw(st.sampled_from(table.lengths)), params=table, **fields)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_digest_equals_the_canonical_encoding(scenario):
    assert scenario.digest() == canonical_digest(scenario)


# The default scenario's digest; a manifest's scenario_sha256 reads it.
DEFAULT_DIGEST = "60f7756bc33e0b7f631f6a703468d3a78934ce42f6e43ce7c85f74dcdc54d6f5"


def test_default_digest_is_pinned():
    assert Scenario().digest() == DEFAULT_DIGEST


def test_digest_falls_back_to_hashlib(monkeypatch):
    # A build without the built-in SHA-256 module hashes through hashlib,
    # to the same hex.  A fresh cache resolves the constructor again.
    monkeypatch.setattr(channel, "_sha256", functools.cache(channel._sha256.__wrapped__))
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    calls, sha256 = [], hashlib.sha256

    def spy(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", spy)
    assert Scenario().digest() == DEFAULT_DIGEST
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a, b",
    [
        (Scenario(max_power=1), Scenario(max_power=1.0)),
        (Scenario(min_similarity=-0.0), Scenario(min_similarity=0.0)),
    ],
    ids=["int-vs-float", "signed-zero"],
)
def test_equal_scenarios_with_different_text_keep_different_digests(a, b):
    # Equal by value, different in canonical text: a digest cached by
    # equality would hand one the other's digest.
    assert a == b
    assert a.digest() == canonical_digest(a) != canonical_digest(b) == b.digest()


# Text with bare and Windows line ends, a lone carriage return and non-ASCII.
TEXT = 'line\nwindows\r\nlone\rcarriage "σ"\n'


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_write_text_writes_the_bytes_open_writes(tmp_path, newline):
    with open(tmp_path / "open.txt", "w", encoding="utf-8", newline=newline) as fh:
        fh.write(TEXT)
    write_text(tmp_path / "ours.txt", TEXT, newline=newline)
    assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "open.txt").read_bytes()
    assert (tmp_path / "ours.txt").stat().st_mode == (tmp_path / "open.txt").stat().st_mode


@pytest.mark.parametrize("newline, ends", [(None, b"\r\n"), ("", b"\n")])
def test_write_text_follows_the_platform_line_end(tmp_path, monkeypatch, newline, ends):
    # As text mode does where os.linesep is "\r\n": JSON files translate, CSVs do not.
    monkeypatch.setattr(os, "linesep", "\r\n")
    write_text(tmp_path / "out.txt", "a\nb\n", newline=newline)
    assert (tmp_path / "out.txt").read_bytes() == b"a" + ends + b"b" + ends


def test_write_text_finishes_short_writes_and_closes_on_error(tmp_path, monkeypatch):
    write, close = os.write, os.close
    closed = []
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or close(fd))
    write_text(tmp_path / "short.txt", TEXT)
    assert (tmp_path / "short.txt").read_bytes() == TEXT.encode("utf-8")

    def failing(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(OSError, match="No space"):
        write_text(tmp_path / "full.txt", TEXT)
    assert len(closed) == 2
