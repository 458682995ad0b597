"""The C HalfSipHash kernel (``crypto/halfsiphash.c``) against the Python one.

Where the C extension loaded, :meth:`HalfSipHash.digest` is one call of
its ``digest`` and :meth:`HalfSipHash.digest_from_state` one call of its
``digest_from_state``; elsewhere the inlined Python kernel runs.  Eqn 4
holds only if both give every tag bit alike, so the property below pins
both entry points to the Python kernel and to a digest assembled from
``_sip_round``, and the KAT corpus runs through the native path.  The
loader tests cover a failed build, a missing ``Python.h``, a warm cache,
a corrupt cached build and the interpreter ABI in the cache key: none
may raise.  The kernel loads on the first digest, never at import.
"""

import json
import os
import random
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import halfsiphash
from repro.crypto.halfsiphash import PREFIX, HalfSipHash
from tests.crypto.test_differential import _spec_digest

native = pytest.mark.skipif(halfsiphash._resolve() is None,
                            reason="the C kernel did not load (no compiler)")
CC = sysconfig.get_config_var("CC") or "cc"
#: ``Python.h``'s directory and the ABI: the rest of the loader's key.
BUILD = sysconfig.get_paths()["include"], sysconfig.get_config_var("SOABI")
ROUNDS = ((1, 2), (2, 4))
MAX_KEY = (1 << 64) - 1
SATURATED = (0xFFFFFFFF,) * 4


def _python_tags(hasher, key, message, start, state=None):
    """``digest`` and ``digest_from_state`` on the Python kernel, and the
    state the second started from (the key schedule or a midstate)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(halfsiphash, "_NATIVE", None)
        if state is None:
            state = (hasher.midstate(key, message) if start
                     else hasher.key_schedule(key))
        return (hasher.digest(key, message),
                hasher.digest_from_state(state, message, start), state)


def _check(c, d, key, message, start):
    lib, hasher = halfsiphash._NATIVE, HalfSipHash(c, d)
    start = start if len(message) >= start else 0
    spec = _spec_digest(hasher, key, message)
    from_key, from_state, state = _python_tags(hasher, key, message, start)
    where = f"c={c} d={d} key={key:#x} len={len(message)} start={start}"
    assert from_key == from_state == spec, where
    assert lib.digest(key, message, c, d) == spec, where
    assert lib.digest_from_state(*state, message, start, c, d) == spec, where
    assert hasher.digest(key, message) == spec, where
    assert hasher.digest_from_state(state, message, start) == spec, where


@native
@settings(max_examples=300, deadline=None)
@given(rounds=st.sampled_from(ROUNDS),
       key=st.one_of(st.just(MAX_KEY), st.integers(0, MAX_KEY)),
       message=st.one_of(st.binary(max_size=300),
                         st.integers(0, 300).map(lambda n: b"\xff" * n)),
       start=st.sampled_from((0, PREFIX)))
def test_native_matches_python_kernel_and_spec(rounds, key, message, start):
    _check(*rounds, key, message, start)


@native
@pytest.mark.parametrize("start", (0, PREFIX))
@pytest.mark.parametrize("c,d", ROUNDS)
def test_native_matches_on_every_length_and_4_kib(c, d, start):
    rng = random.Random(0xC0DE ^ c << 4 ^ d)
    for length in (*range(301), 4096):
        _check(c, d, rng.getrandbits(64), rng.randbytes(length), start)
    _check(c, d, MAX_KEY, b"\xff" * 4096, start)


@native
@pytest.mark.parametrize("c,d", ROUNDS)
def test_native_matches_from_a_saturated_state(c, d):
    """Every word ``0xFFFFFFFF``, message bytes included: every add
    carries out of bit 31."""
    hasher = HalfSipHash(c, d)
    for length in range(301):
        message = b"\xff" * length
        for start in {0, PREFIX if length >= PREFIX else 0}:
            _, python, _ = _python_tags(hasher, 0, message, start, SATURATED)
            assert halfsiphash._NATIVE.digest_from_state(
                *SATURATED, memoryview(message), start, c, d) == python


@native
def test_native_matches_kat_corpus():
    with (Path(__file__).parent / "vectors_halfsiphash.json").open() as fh:
        vectors = json.load(fh)["vectors"]
    lib = halfsiphash._NATIVE
    for vec in vectors:
        c, d = vec["c"], vec["d"]
        key = int.from_bytes(bytes.fromhex(vec["key"]), "little")
        message = bytes.fromhex(vec["msg"])
        state = HalfSipHash(c, d).key_schedule(key)
        assert lib.digest(key, message, c, d) == vec["tag"]
        assert lib.digest_from_state(*state, bytearray(message), 0, c, d) \
            == vec["tag"]


# ---------------------------------------------------------------------------
# the loader: every failure falls back, nothing raises
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cc", ["/nonexistent/cc", "false"])
def test_failed_build_falls_back_with_equal_tags(tmp_path, cc, monkeypatch):
    assert halfsiphash._load_native(str(tmp_path), cc, *BUILD) is None
    (tmp_path / "file").write_bytes(b"")  # a cache that cannot be a dir
    assert halfsiphash._load_native(str(tmp_path / "file" / "repro"),
                                    CC, *BUILD) is None
    message = bytes(range(26))
    tags = [HalfSipHash().digest(key, message) for key in (0, 1, MAX_KEY)]
    monkeypatch.setattr(halfsiphash, "_NATIVE", None)
    assert [HalfSipHash().digest(key, message)
            for key in (0, 1, MAX_KEY)] == tags


@native
def test_warm_cache_compiles_nothing(tmp_path, monkeypatch):
    assert halfsiphash._load_native(str(tmp_path), CC, *BUILD) is not None
    built = sorted(os.listdir(tmp_path))
    assert len(built) == 1 and built[0].endswith(".so")

    def no_compiler(*args, **kwargs):
        raise AssertionError("a warm cache ran the compiler")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    lib = halfsiphash._load_native(str(tmp_path), CC, *BUILD)
    assert lib.digest(1, b"abc", 2, 4) == HalfSipHash().digest(1, b"abc")
    assert sorted(os.listdir(tmp_path)) == built


@native
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_corrupt_cached_build_is_rebuilt(tmp_path, damage, fresh_interpreter):
    # Built by another process: this one never maps the file it damages.
    (name,) = fresh_interpreter(
        "import json, os, sys\n"
        "from repro.crypto.halfsiphash import _load_native\n"
        "assert _load_native(*sys.argv[1:]) is not None\n"
        "print(json.dumps(os.listdir(sys.argv[1])))\n", str(tmp_path), CC,
        *BUILD)
    path = tmp_path / name
    good = path.read_bytes()
    path.write_bytes(good[:len(good) // 3] if damage == "truncated"
                     else os.urandom(len(good)))
    lib = halfsiphash._load_native(str(tmp_path), CC, *BUILD)
    assert lib is not None
    assert lib.digest(7, b"p4auth", 2, 4) == HalfSipHash().digest(7, b"p4auth")
    assert os.listdir(tmp_path) == [name]


def test_include_without_python_h_falls_back_with_equal_tags(tmp_path):
    (tmp_path / "include").mkdir()
    assert halfsiphash._load_native(str(tmp_path / "cache"), CC,
                                    str(tmp_path / "include"),
                                    BUILD[1]) is None
    hasher, message = HalfSipHash(), bytes(range(26))
    tags = [hasher.digest(key, message) for key in (0, 1, MAX_KEY)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(halfsiphash, "_NATIVE", None)
        assert [hasher.digest(key, message)
                for key in (0, 1, MAX_KEY)] == tags


@native
def test_abi_keys_the_cache_file_name(tmp_path):
    """A build for another interpreter sits under another name, so this
    one never maps it."""
    for abi in ("cpython-311-x86_64-linux-gnu",
                "cpython-312-x86_64-linux-gnu"):
        assert halfsiphash._load_native(str(tmp_path), CC, BUILD[0],
                                        abi) is not None
    assert len(set(os.listdir(tmp_path))) == 2


@pytest.mark.parametrize("kernel", ["python", "native"])
def test_start_off_a_block_boundary_raises(kernel, request):
    """``start`` 2 is inside a block, 12 past a 10-byte message: the C
    kernel used to return a tag for both, the Python one a different tag
    and a ``struct.error``."""
    if kernel == "python":
        request.getfixturevalue("python_kernel")
    elif halfsiphash._resolve() is None:
        pytest.skip("the C kernel did not load (no compiler)")
    hasher, message = HalfSipHash(), bytes(range(10))
    state = hasher.key_schedule(0x0123456789ABCDEF)
    for start in (1, 2, 3, 12, -4):
        with pytest.raises(ValueError, match="not a block boundary"):
            hasher.digest_from_state(state, message, start)
    assert hasher.digest_from_state(state, message, 0) == \
        _spec_digest(hasher, 0x0123456789ABCDEF, message)


@pytest.mark.parametrize("kernel", ["python", "native"])
def test_state_word_out_of_range_raises(kernel, request):
    """A state word below 0 or at 2**32 and above is refused before either
    kernel runs: from ``(-1, 0, 0, 0)`` the C kernel used to raise
    ``OverflowError`` and the Python one to return a tag."""
    if kernel == "python":
        request.getfixturevalue("python_kernel")
    elif halfsiphash._resolve() is None:
        pytest.skip("the C kernel did not load (no compiler)")
    hasher, message = HalfSipHash(), b"abcdefgh"
    for state in ((-1, 0, 0, 0), (0, 0, 0, 1 << 32), (0, -(1 << 40), 0, 0),
                  (0, 0, 1 << 63, 0)):
        with pytest.raises(ValueError, match="outside"):
            hasher.digest_from_state(state, message)
    # MAX_KEY's schedule has words of all ones: the largest in range.
    assert hasher.digest_from_state(hasher.key_schedule(MAX_KEY), message) \
        == _spec_digest(hasher, MAX_KEY, message)


def test_kernel_loads_on_the_first_digest(tmp_path, fresh_interpreter):
    """Import and construction build and map nothing; the first digest
    does, where a compiler is reachable."""
    done = fresh_interpreter(
        "import json, os, sys\n"
        "os.environ['XDG_CACHE_HOME'] = sys.argv[1]\n"
        "from repro.crypto import halfsiphash\n"
        "hasher = halfsiphash.HalfSipHash()\n"
        "before = [halfsiphash._NATIVE is None, os.path.exists(sys.argv[2])]\n"
        "hasher.digest(1, b'p4auth')\n"
        "print(json.dumps(before + [halfsiphash._NATIVE is None,\n"
        "                           halfsiphash._PENDING]))\n",
        str(tmp_path), str(tmp_path / "repro"))
    assert done == [True, False, halfsiphash._resolve() is None, False]


def test_first_digest_enters_each_method_once(tmp_path, fresh_interpreter):
    """The load on a process's first digest calls the kernel directly, so
    a wrapper on the class (a traced span) sees one call, not two."""
    calls = fresh_interpreter(
        "import json, os, sys\n"
        "os.environ['XDG_CACHE_HOME'] = sys.argv[1]\n"
        "from repro.crypto import halfsiphash\n"
        "cls, calls = halfsiphash.HalfSipHash, []\n"
        "for name in ('digest', 'digest_from_state'):\n"
        "    def wrap(*args, _name=name, _real=cls.__dict__[name]):\n"
        "        calls.append(_name)\n"
        "        return _real(*args)\n"
        "    setattr(cls, name, wrap)\n"
        "cls().digest(1, b'p4auth')\n"
        "halfsiphash._NATIVE, halfsiphash._PENDING = None, True\n"
        "cls().digest_from_state((0, 0, 0, 0), b'p4auth')\n"
        "print(json.dumps(calls))\n",
        str(tmp_path))
    if halfsiphash._resolve() is None:  # the Python kernel nests calls
        assert calls[0] == "digest" and calls[-1] == "digest_from_state"
    else:
        assert calls == ["digest", "digest_from_state"]


def test_python_kernel_pin_outlasts_a_lazy_load(monkeypatch, request):
    monkeypatch.setattr(halfsiphash, "_NATIVE", None)  # a process before
    monkeypatch.setattr(halfsiphash, "_PENDING", True)  # its first digest
    request.getfixturevalue("python_kernel")
    hasher = HalfSipHash()
    hasher.digest(1, bytes(26))
    assert halfsiphash._NATIVE is None and hasher.misses == 1
