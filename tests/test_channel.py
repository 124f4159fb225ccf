import io
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import mupower
from mupower import (
    Scenario,
    SingularGramError,
    build_scenario,
    compute_effective_gains,
    gains_from_db,
    load_channel_csv,
)
from mupower.channel import _lower_inv


def random_rayleigh_channel(n_antennas, n_users, seed):
    """I.i.d. unit-variance circularly-symmetric complex Gaussian channel."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_antennas, n_users))
        + 1j * rng.standard_normal((n_antennas, n_users))
    ) / np.sqrt(2.0)


def channel_text(h, layout):
    """H as CSV text at 17 digits: complex literals, or (re, im) pairs."""
    if layout == "complex":
        cells = [[f"{z.real:.17g}{z.imag:+.17g}j" for z in row] for row in h]
    else:
        cells = [[f"{x:.17g}" for z in row for x in (z.real, z.imag)] for row in h]
    return "".join(",".join(row) + "\n" for row in cells)


def channel_doc(m, n):
    """A scenario mapping on the channel CSV h.csv with M = m antennas and N = n users."""
    return {"n_users": n, "receive_antennas": m, "channel_csv": "h.csv", "sigma2_watts": 1.0,
            "w": 0.5, "p_max_individual_watts": 1.0, "p_circuit_watts": 0.1, "p_sum_max_watts": 0.2 * n}


def pinv_row_norm_gains(h, sigma2):
    """Oracle: delta_i = 1 / (sigma2 * ||row i of pinv(H)||^2)."""
    h_pinv = np.linalg.inv(h.conj().T @ h) @ h.conj().T
    return 1.0 / (sigma2 * np.sum(np.abs(h_pinv) ** 2, axis=1))


def test_identity_channel():
    assert np.allclose(compute_effective_gains(np.eye(2, dtype=complex), sigma2=1.0), [1.0, 1.0])


def test_orthogonal_scaled_columns():
    h = np.array([[2.0, 0.0], [0.0, 3.0]], dtype=complex)
    assert np.allclose(compute_effective_gains(h, sigma2=1.0), [4.0, 9.0], rtol=1e-14)


def test_pinv_oracle_seeded_4x2():
    h = random_rayleigh_channel(4, 2, seed=7)
    delta = compute_effective_gains(h, 0.5)
    assert np.allclose(delta, pinv_row_norm_gains(h, 0.5), rtol=1e-10)


def test_pinv_oracle_sweep_sizes():
    # 100 seeded matrices across antenna/user counts
    cases = [(2, 2), (4, 2), (4, 4), (8, 2), (8, 4)]
    seed = 0
    for m, n in cases:
        for _ in range(20):
            h = random_rayleigh_channel(m, n, seed=seed)
            seed += 1
            delta = compute_effective_gains(h, 1.3)
            assert np.allclose(delta, pinv_row_norm_gains(h, 1.3), rtol=1e-8)


def test_pinv_oracle_blocked_inverse_sizes():
    # N straddles the 64-row leaf of the blocked triangular inverse, and
    # 65, 129 and 300 split into halves of unequal size
    for n in (63, 64, 65, 129, 300, 512):
        h = random_rayleigh_channel(2 * n, n, seed=n)
        delta = compute_effective_gains(h, 0.7)
        assert np.allclose(delta, pinv_row_norm_gains(h, 0.7), rtol=1e-10), n


def test_unitary_invariance():
    rng = np.random.default_rng(11)
    h = random_rayleigh_channel(6, 3, seed=3)
    base = compute_effective_gains(h, 1.0)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(a)
        rotated = compute_effective_gains(q @ h, 1.0)
        assert np.allclose(rotated, base, rtol=1e-10)


def test_scaling_is_quadratic():
    h = random_rayleigh_channel(5, 3, seed=21)
    base = compute_effective_gains(h, 1.0)
    for c in (0.25, 3.0, 17.5):
        scaled = compute_effective_gains(c * h, 1.0)
        assert np.allclose(scaled, c**2 * base, rtol=1e-10)


def test_gains_from_db_examples():
    assert np.allclose(gains_from_db([20.0, 20.0]), [100.0, 100.0])
    assert np.allclose(gains_from_db([0.0]), [1.0])
    assert np.allclose(gains_from_db([-20.0]), [0.01])


def test_rank_deficient_rejected():
    h = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularGramError):
        compute_effective_gains(h, sigma2=1.0)


def test_gram_condition_limit_from_one_read_only_gram():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    for cond, rejected in ((1e6, False), (1e11, False), (1e12 * (1 + 1e-6), True), (1e13, True), (1e14, True)):
        # singular values 1 and cond^-1/2, so H^H H has condition number cond
        h = q[:, :3] @ np.diag([1.0, 0.5, cond**-0.5])
        if rejected:
            with pytest.raises(SingularGramError, match="condition estimate"):
                compute_effective_gains(h, sigma2=1.0)
            continue
        assert np.all(compute_effective_gains(h, sigma2=1.0) > 0)


def test_extreme_scales_raise_without_warnings():
    # RuntimeWarnings are errors in the test run, so an overflow inside the
    # gains would fail here before any check could report the input
    h = random_rayleigh_channel(6, 3, seed=13)
    for scale in (1e200, 1e-200):
        with pytest.raises(SingularGramError, match="condition estimate"):
            compute_effective_gains(scale * h, sigma2=1.0)
    delta = compute_effective_gains(h, sigma2=1e-320)
    assert np.all(delta == np.inf)
    with pytest.raises(ValueError, match="delta must be > 0"):
        Scenario(w=0.5, p_circuit=0.1, p_max=1.0, delta=delta, p_sum_max=1.0)


def test_wide_matrix_rejected():
    with pytest.raises(ValueError, match="receive antennas"):
        compute_effective_gains(np.ones((2, 3), dtype=complex), sigma2=1.0)


def test_bad_noise_power_rejected():
    with pytest.raises(ValueError):
        compute_effective_gains(np.eye(2, dtype=complex), sigma2=0.0)


def test_gains_validation():
    with pytest.raises(ValueError):
        gains_from_db([np.inf])


def test_channel_csv_complex_entries(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1+2j,0.5-1j\n0+0.25j,2+0j\n3-0.5j,1+1j\n")
    h = load_channel_csv(path, n_users=2)
    assert h.shape == (3, 2)
    assert h[0, 0] == 1 + 2j and h[2, 1] == 1 + 1j


def test_channel_csv_re_im_pairs(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1,2,0.5,-1\n0,0.25,2,0\n")
    h = load_channel_csv(path, n_users=2)
    assert h.shape == (2, 2)
    assert h[0, 0] == 1 + 2j and h[0, 1] == 0.5 - 1j


def test_channel_csv_bad_width(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="columns"):
        load_channel_csv(path, n_users=2)


def test_channel_csv_blank_lines_and_bad_rows(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("\n1+2j,0.5-1j\n  \n0+0.25j,2\n")
    assert np.array_equal(load_channel_csv(path, n_users=2), [[1 + 2j, 0.5 - 1j], [0.25j, 2]])
    for text in ("1+2j,0.5-1j\n3+1j\n", "1+2j,abc\n", "1,2,x,4\n", "\n \n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            load_channel_csv(path, n_users=2)


@pytest.mark.parametrize("layout", ["complex", "re-im"])
def test_channel_csv_with_a_byte_order_mark(tmp_path, layout):
    # as Excel's "CSV UTF-8" export writes it
    h = random_rayleigh_channel(4, 2, seed=31)
    path = tmp_path / "h.csv"
    path.write_text("\ufeff" + channel_text(h, layout), encoding="utf-8")
    assert np.array_equal(load_channel_csv(path, n_users=2), h)


def _no_parse(*args, **kwargs):
    raise AssertionError("the channel CSV was parsed or factored, not read from its cache")


def _warm(monkeypatch):
    """Make every later parse and factorisation fail: a load must read the cache."""
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    monkeypatch.setattr(np.linalg, "cholesky", _no_parse)


def gains(tmp_path, m, n, **doc):
    """delta of channel_doc(m, n) on tmp_path/h.csv, with doc's keys replaced."""
    return build_scenario({**channel_doc(m, n), **doc}, base_dir=str(tmp_path)).scenario.delta


@pytest.mark.parametrize("layout", ["complex", "re-im"])
def test_warm_channel_load_reads_the_cache_bit_for_bit(tmp_path, monkeypatch, layout):
    h = random_rayleigh_channel(12, 5, seed=32)
    (tmp_path / "h.csv").write_text(channel_text(h, layout))
    assert load_channel_csv(tmp_path / "h.csv", 5).tobytes() == h.tobytes()
    assert not (tmp_path / "__pycache__").exists()  # the parse alone caches nothing
    cold = gains(tmp_path, 12, 5)
    assert cold.tobytes() == compute_effective_gains(h, 1.0).tobytes()
    _warm(monkeypatch)
    assert gains(tmp_path, 12, 5).tobytes() == cold.tobytes()
    assert gains(tmp_path, 12, 5, receive_antennas=None).tobytes() == cold.tobytes()
    # the receive_antennas check holds on a cached load too: a mismatched M
    # is parsed again, for the parse's own message
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"^<dict>: {re.escape(str(tmp_path / 'h.csv'))}: channel CSV has 12 "
                                         "rows, expected receive_antennas 13$"):
        gains(tmp_path, 13, 5)


def test_same_size_edit_of_the_csv_is_parsed_again(tmp_path):
    # the cache is keyed by the CSV's bytes, not by its size or its time
    path = tmp_path / "h.csv"
    path.write_text("1+2j,3+4j\n5+6j,7+8j\n")
    before_edit = gains(tmp_path, 2, 2)
    assert np.array_equal(before_edit, compute_effective_gains([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]], 1.0))
    before = path.stat()
    path.write_text("1+2j,3+4j\n5+6j,7+9j\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    after_edit = gains(tmp_path, 2, 2)
    assert np.array_equal(after_edit, compute_effective_gains([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 9j]], 1.0))
    assert not np.array_equal(after_edit, before_edit)


def test_a_csv_that_fails_to_parse_writes_no_cache(tmp_path):
    # nor does a channel that fails the finite or the rank check
    path = tmp_path / "h.csv"
    for text, prefix in (
        (b"1+2j,abc\n", f"<dict>: {path}: "), (b"1,2,3\n", f"<dict>: {path}: "), (b"", f"<dict>: {path}: "),
        (b"1+0j,1\xff+0j\n", f"<dict>: {path}: "), (b"1+2j,0+0j\n3+1j\n", f"<dict>: {path}: "),
        (b"1+0j,nan+0j\n0+0j,1+0j\n", "<dict>: channel matrix has non-finite entries"),
        (b"1+0j,2+0j\n2+0j,4+0j\n", "<dict>: Gram matrix "),
    ):
        path.write_bytes(text)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                gains(tmp_path, 2, 2, receive_antennas=None)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and messages[0].startswith(prefix), text
        assert not (tmp_path / "__pycache__").exists(), text


def _npy(*arrays):
    out = io.BytesIO()
    for a in arrays:
        np.save(out, a, allow_pickle=True)
    return out.getvalue()


def test_a_garbage_or_truncated_cache_is_ignored_then_replaced(tmp_path):
    h = random_rayleigh_channel(6, 3, seed=34)
    (tmp_path / "h.csv").write_text(channel_text(h, "complex"))
    cold = gains(tmp_path, 6, 3)
    cache = tmp_path / "__pycache__" / "h.csv.npy"
    good = cache.read_bytes()
    saved = np.lib.format.read_array(io.BytesIO(good))
    assert saved.shape == (6 + 3,)  # the key, M, then d
    other_csv = saved.copy()
    other_csv[3] += 1  # the CRC-32
    other_csv[6:] *= 2
    for bad in (
        b"", b"garbage", b"PK\x03\x04" + good, good[:10], good[:len(good) // 2], good[:-1],
        _npy(saved[:5]), _npy(saved[:-1]), _npy(saved[None]), _npy(saved.astype(complex)),
        _npy(np.array([None, 1])), _npy(other_csv),
    ):
        cache.write_bytes(bad)
        assert gains(tmp_path, 6, 3).tobytes() == cold.tobytes()
        assert cache.read_bytes() == good
    assert [p.name for p in cache.parent.iterdir()] == ["h.csv.npy"]


def test_a_cache_of_another_format_is_parsed_again(tmp_path, monkeypatch):
    # the key starts with the cache format: a cache written by another
    # version of the parse or the Gram arithmetic is not read, though the
    # CSV and n_users match
    h = random_rayleigh_channel(6, 3, seed=38)
    (tmp_path / "h.csv").write_text(channel_text(h, "complex"))
    cold = gains(tmp_path, 6, 3)
    cache = tmp_path / "__pycache__" / "h.csv.npy"
    good = cache.read_bytes()
    saved = np.lib.format.read_array(io.BytesIO(good))
    loadtxt, parses = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: parses.append(1) or loadtxt(*a, **kw))
    for other in (saved[0] - 1, saved[0] + 1):
        cache.write_bytes(_npy(np.concatenate([[other], saved[1:6], 2 * saved[6:]])))
        assert gains(tmp_path, 6, 3).tobytes() == cold.tobytes()
        assert cache.read_bytes() == good
    assert len(parses) == 2
    assert gains(tmp_path, 6, 3).tobytes() == cold.tobytes() and len(parses) == 2


def test_a_cache_written_under_another_numpy_is_parsed_again(tmp_path, monkeypatch):
    h = random_rayleigh_channel(6, 3, seed=39)
    (tmp_path / "h.csv").write_text(channel_text(h, "complex"))
    cold = gains(tmp_path, 6, 3)
    cache = tmp_path / "__pycache__" / "h.csv.npy"
    good = cache.read_bytes()
    monkeypatch.setattr(np, "__version__", "0.0.0")
    assert gains(tmp_path, 6, 3).tobytes() == cold.tobytes()
    assert cache.read_bytes() != good
    monkeypatch.undo()
    loadtxt, parses = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: parses.append(1) or loadtxt(*a, **kw))
    assert gains(tmp_path, 6, 3).tobytes() == cold.tobytes()
    assert len(parses) == 1 and cache.read_bytes() == good


def test_a_cache_of_the_channel_matrix_is_replaced_by_its_gram_diagonal(tmp_path):
    # the format that held H: the key [1, byte count, CRC-32, n_users], then H
    h = random_rayleigh_channel(6, 3, seed=40)
    text = channel_text(h, "complex").encode()
    (tmp_path / "h.csv").write_bytes(text)
    cache = tmp_path / "__pycache__" / "h.csv.npy"
    cache.parent.mkdir()
    cache.write_bytes(_npy(np.array([1, len(text), zlib.crc32(text), 3]), h))
    assert gains(tmp_path, 6, 3).tobytes() == compute_effective_gains(h, 1.0).tobytes()
    saved = np.lib.format.read_array(io.BytesIO(cache.read_bytes()))
    assert (saved.dtype, saved.shape) == (np.float64, (6 + 3,)) and saved[5] == 6


def test_a_warm_load_at_another_noise_power_reads_the_cache(tmp_path, monkeypatch):
    # sigma2 is not keyed: the cache holds diag((H^H H)^-1), which has no sigma2
    h = random_rayleigh_channel(12, 5, seed=41)
    (tmp_path / "h.csv").write_text(channel_text(h, "re-im"))
    cold = gains(tmp_path, 12, 5, sigma2_watts=0.37)
    (tmp_path / "__pycache__" / "h.csv.npy").unlink()
    assert gains(tmp_path, 12, 5).tobytes() != cold.tobytes()  # the cache, written at sigma2 = 1
    _warm(monkeypatch)
    assert gains(tmp_path, 12, 5, sigma2_watts=0.37).tobytes() == cold.tobytes()


def test_the_noise_power_rule_holds_on_a_warm_load(tmp_path, monkeypatch):
    (tmp_path / "h.csv").write_text(channel_text(random_rayleigh_channel(12, 5, seed=42), "complex"))
    message = r"^<dict>: noise power must be positive, got -1\.0$"
    with pytest.raises(ValueError, match=message):
        gains(tmp_path, 12, 5, sigma2_watts=-1)
    assert (tmp_path / "__pycache__" / "h.csv.npy").is_file()
    _warm(monkeypatch)
    with pytest.raises(ValueError, match=message):
        gains(tmp_path, 12, 5, sigma2_watts=-1)


def test_a_receive_antennas_mismatch_on_a_warm_cache_gives_the_cold_message(tmp_path):
    (tmp_path / "h.csv").write_text(channel_text(random_rayleigh_channel(12, 5, seed=43), "complex"))
    messages = []
    for warm in (False, True):
        if warm:
            gains(tmp_path, 12, 5)
        with pytest.raises(ValueError) as info:
            gains(tmp_path, 13, 5)
        messages.append(str(info.value))
        assert (tmp_path / "__pycache__" / "h.csv.npy").is_file() == warm
    assert messages == [f"<dict>: {tmp_path / 'h.csv'}: channel CSV has 12 rows, expected receive_antennas 13"] * 2


def test_a_file_named_pycache_leaves_the_load_working(tmp_path):
    # a regular file where the cache's directory would go stops the write
    # even for root, whom a read-only mode would not stop
    (tmp_path / "__pycache__").write_text("not a directory\n")
    h = random_rayleigh_channel(6, 3, seed=35)
    (tmp_path / "h.csv").write_text(channel_text(h, "re-im"))
    for _ in range(2):
        assert gains(tmp_path, 6, 3).tobytes() == compute_effective_gains(h, 1.0).tobytes()
    assert (tmp_path / "__pycache__").read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["__pycache__", "h.csv"]


def test_a_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    # as a full disk would fail it: partway through the array
    save, saves = np.save, []

    def failing_save(file, arr, *args, **kwargs):
        saves.append(arr)
        out = io.BytesIO()
        save(out, arr, *args, **kwargs)
        with open(file, "wb") as f:
            f.write(out.getvalue()[:len(out.getvalue()) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", failing_save)
    h = random_rayleigh_channel(6, 3, seed=37)
    (tmp_path / "h.csv").write_text(channel_text(h, "complex"))
    assert gains(tmp_path, 6, 3).tobytes() == compute_effective_gains(h, 1.0).tobytes()
    assert len(saves) == 1 and list((tmp_path / "__pycache__").iterdir()) == []


def test_one_cache_file_per_csv(tmp_path):
    # four real columns: 4 users of complex literals or 2 users of (re, im) pairs
    path = tmp_path / "h.csv"
    for seed, counts in ((44, (4, 2, 4)), (45, (2, 4))):
        a = np.random.default_rng(seed).standard_normal((4, 4))
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))
        for n in counts:
            h = a if n == 4 else a.view(complex)
            assert gains(tmp_path, 4, n).tobytes() == compute_effective_gains(h, 1.0).tobytes(), (seed, n)
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == ["h.csv.npy"]


def test_channel_csv_round_trips_17_digits(tmp_path):
    # in both layouts, to the same matrix and the same bits of delta
    h = random_rayleigh_channel(6, 3, seed=5)
    path = tmp_path / "h.csv"
    path.write_text("".join(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n" for row in h))
    assert np.array_equal(load_channel_csv(path, n_users=3), h)
    delta = compute_effective_gains(load_channel_csv(path, n_users=3), 1.0)
    path.write_text("".join(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n" for row in h))
    assert np.array_equal(load_channel_csv(path, n_users=3), h)
    pairs_delta = compute_effective_gains(load_channel_csv(path, n_users=3), 1.0)
    assert np.array_equal(pairs_delta.view(np.uint64), delta.view(np.uint64))


def test_effective_gains_typed_error_on_singular_gram(monkeypatch):
    # with no condition limit the singular Gram matrix reaches cholesky,
    # whose LinAlgError must come out typed
    monkeypatch.setattr(mupower.channel, "GRAM_CONDITION_LIMIT", np.inf)
    with pytest.raises(SingularGramError, match="not positive definite"):
        compute_effective_gains(np.array([[1.0, 0.0], [0.0, 0.0]]), sigma2=1.0)


def full_product_gains(h, sigma2):
    """The gains from the full product G = H^H H, formed before G was built
    in blocks, with the same factor and triangular inverse; and G."""
    gram = h.conj().T @ h
    diag = np.sum(np.abs(_lower_inv(np.linalg.cholesky(gram))) ** 2, axis=0)
    return 1.0 / (sigma2 * diag), gram


def test_blocked_gram_gives_the_full_products_gains():
    # N straddles one and two 64-column blocks; M = N is square. Where the
    # full product is exactly Hermitian the blocks repeat its bits. Elsewhere
    # G's entries may differ in the last bit, which the inverse amplifies up
    # to kappa_2(G) times (about 3e6 for the square 130-user draw)
    for n in (1, 63, 64, 65, 128, 130):
        for m in (n, 2 * n + 3):
            h = random_rayleigh_channel(m, n, seed=1000 * n + m)
            expected, gram = full_product_gains(h, 0.7)
            delta = compute_effective_gains(h, 0.7)
            if np.array_equal(gram, gram.conj().T):
                assert np.array_equal(delta.view(np.uint64), expected.view(np.uint64)), (m, n)
            else:
                rtol = max(1e-14, np.finfo(float).eps * np.linalg.cond(gram))
                np.testing.assert_allclose(delta, expected, rtol=rtol, atol=0, err_msg=f"{(m, n)}")


def test_effective_gains_allocate_less_than_the_channel():
    # G and one 64-column block, then G, its factor and the inverse; the
    # full product's conjugate copy of H alone took H.nbytes
    box = [random_rayleigh_channel(1024, 256, seed=919)]
    nbytes = box[0].nbytes
    tracemalloc.start()
    try:
        compute_effective_gains(box.pop(), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nbytes, f"peak {peak / nbytes:.2f} x H.nbytes"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a temporary argument alive in its caller")
@pytest.mark.parametrize("layout", ["complex", "re-im"])
def test_build_scenario_frees_the_channel_before_the_factorisation(tmp_path, monkeypatch, layout):
    # from the parse, then through compute_effective_gains; the warm build
    # reads the cache, and neither parses nor factors
    h = random_rayleigh_channel(96, 80, seed=920)
    (tmp_path / "h.csv").write_text(channel_text(h, layout))
    expected = compute_effective_gains(h, 1.0)
    refs, alive = [], []
    load, cholesky = mupower.scenario.load_channel_csv, np.linalg.cholesky

    def load_spy(*args):
        matrix = load(*args)
        refs.append(weakref.ref(matrix))
        return matrix

    def cholesky_spy(a, *args, **kwargs):
        alive.append(refs[-1]() is not None)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(mupower.scenario, "load_channel_csv", load_spy)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    doc = channel_doc(96, 80)
    loaded = mupower.scenario.build_scenario(doc, base_dir=str(tmp_path))
    assert (tmp_path / "__pycache__" / "h.csv.npy").is_file()
    # the public function frees a temporary H too (not inside an assert, whose rewrite keeps it)
    public = compute_effective_gains(load_spy(tmp_path / "h.csv", 80), 1.0)
    assert public.tobytes() == expected.tobytes()
    _warm(monkeypatch)
    warm = mupower.scenario.build_scenario(doc, base_dir=str(tmp_path))
    assert alive == [False, False] and len(refs) == 2
    assert np.array_equal(loaded.scenario.delta, expected)
    assert warm.scenario.delta.tobytes() == loaded.scenario.delta.tobytes()


def test_warm_build_scenario_allocates_an_eighth_of_the_channel(tmp_path):
    # a hit reads M and d, 8 B per user, and never H
    h = random_rayleigh_channel(1024, 256, seed=921)
    (tmp_path / "h.csv").write_text(channel_text(h, "re-im"))
    cold = gains(tmp_path, 1024, 256)
    tracemalloc.start()
    try:
        warm = gains(tmp_path, 1024, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes / 8, f"peak {peak / h.nbytes:.3f} x H.nbytes"
    assert warm.tobytes() == cold.tobytes()


def test_effective_gains_peak_memory_is_twice_the_channel():
    # the Gram matrix, its factor and their temporaries; no copy of h itself
    h = random_rayleigh_channel(512, 256, seed=918)
    tracemalloc.start()
    try:
        compute_effective_gains(h, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * h.nbytes, f"peak {peak / h.nbytes:.2f} x h.nbytes"
    assert h.flags.writeable


def test_import_leaves_scipy_unloaded():
    src = str(Path(mupower.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import mupower; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_loading_a_channel_scenario_leaves_openssl_unloaded(tmp_path):
    # the cache is keyed by zlib's CRC-32, which numpy has loaded already;
    # hashlib would load OpenSSL, about 3.5 MB of resident memory
    (tmp_path / "h.csv").write_text(channel_text(random_rayleigh_channel(4, 2, seed=36), "complex"))
    doc = "".join(f"{key}: {value}\n" for key, value in channel_doc(4, 2).items())
    (tmp_path / "s.yaml").write_text(doc)
    src = str(Path(mupower.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import mupower; "
            f"[mupower.load_scenario({str(tmp_path / 's.yaml')!r}) for _ in range(2)]; "
            "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
    assert (tmp_path / "__pycache__" / "h.csv.npy").is_file()
