"""Frame type, netpbm codec, sequence loading, median prefilter."""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from blockbg.errors import (
    FrameTooSmall,
    InconsistentSequence,
    PnmError,
    SequenceTooShort,
)
from blockbg.imaging import (
    Frame,
    load_frame,
    load_sequence,
    prefilter,
    save_frame,
)

from helpers import frame_of, texture, write_frames


def write_p6(path, rgb: np.ndarray):
    h, w, _ = rgb.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    path.write_bytes(header + rgb.astype(np.uint8).tobytes())


# --- Frame invariants ---


def test_frame_requires_2d():
    with pytest.raises(ValueError):
        Frame(np.zeros(256, dtype=np.uint8))


def test_frame_minimum_dimension():
    with pytest.raises(FrameTooSmall):
        Frame(np.zeros((15, 16), dtype=np.uint8))
    with pytest.raises(FrameTooSmall):
        Frame(np.zeros((16, 15), dtype=np.uint8))


def test_frame_rejects_out_of_range_ints():
    for value in (300, 256, -1):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Frame(np.full((16, 16), value, dtype=np.int32))


def test_frame_rejects_floats():
    with pytest.raises(ValueError):
        Frame(np.zeros((16, 16), dtype=np.float64))


def test_frame_accepts_wider_int_dtypes():
    f = Frame(np.full((16, 16), 200, dtype=np.int64))
    assert f.pixels.dtype == np.uint8
    assert int(f.pixels[0, 0]) == 200
    ends = np.zeros((16, 16), dtype=np.int64)
    ends[0, 0] = 255  # both ends of the range are accepted
    assert np.array_equal(Frame(ends).pixels, ends)


def test_frame_pixels_are_frozen():
    f = frame_of(texture(0, 16, 16))
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 1


def test_frame_copies_its_input():
    src = texture(1, 16, 16)
    f = Frame(src)
    src[0, 0] ^= 0xFF
    assert f.pixels[0, 0] != src[0, 0]
    assert f == Frame(texture(1, 16, 16))
    # Another type, even one holding the same values, is never equal.
    assert (f == f.pixels.tolist()) is False and (f != f.pixels.tolist()) is True


# --- PGM/PPM codec ---


def test_pgm_round_trip_is_identity(tmp_path):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(16, 40))
        w = int(rng.integers(16, 40))
        px = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        # row-major, column-major and strided inputs write the same row-major file
        for src in (px, np.asfortranarray(px), np.repeat(px, 2, axis=1)[:, ::2]):
            f = Frame(src)
            path = tmp_path / f"rt{seed}.pgm"
            save_frame(f, path)
            assert path.read_bytes() == f"P5\n{w} {h}\n255\n".encode() + px.tobytes()
            assert load_frame(path) == f


def test_pgm_payload_is_verbatim(tmp_path):
    # All 256 intensities in a known order survive the codec untouched.
    px = np.arange(256, dtype=np.uint8).reshape(16, 16)
    path = tmp_path / "v.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + px.tobytes())
    assert np.array_equal(load_frame(path).pixels, px)


def test_mask_values_round_trip(tmp_path):
    px = np.zeros((16, 16), dtype=np.uint8)
    px[4:9, 4:9] = 255
    path = tmp_path / "m.pgm"
    save_frame(frame_of(px), path)
    assert np.array_equal(load_frame(path).pixels, px)


def test_ppm_luma_endpoints(tmp_path):
    rgb = np.zeros((16, 16, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 255, 255)
    rgb[0, 1] = (0, 0, 0)
    rgb[0, 2] = (255, 0, 0)
    rgb[0, 3] = (1, 43, 0)
    path = tmp_path / "c.ppm"
    write_p6(path, rgb)
    f = load_frame(path)
    assert int(f.pixels[0, 0]) == 255
    assert int(f.pixels[0, 1]) == 0
    assert int(f.pixels[0, 2]) == 77  # (77*255 + 128) >> 8
    assert int(f.pixels[0, 3]) == 25  # 77 + 150*43 + 128 = 25*256 + 255: one more would round up


def test_ppm_luma_matches_formula(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    path = tmp_path / "r.ppm"
    write_p6(path, rgb)
    f = load_frame(path)
    r, g, b = (rgb[:, :, i].astype(np.uint32) for i in range(3))
    want = ((77 * r + 150 * g + 29 * b + 128) >> 8).astype(np.uint8)
    assert np.array_equal(f.pixels, want)


def test_load_frame_copies_no_pixel(tmp_path):
    # The file is read into the buffer the Frame keeps: one payload's worth
    # of memory at the peak, not the file's bytes plus the Frame's copy.
    path = tmp_path / "hd.pgm"
    save_frame(frame_of(texture(5, 720, 1280, lo=0, hi=256)), path)
    load_frame(path)  # warm
    tracemalloc.start()
    try:
        frame = load_frame(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * frame.pixels.nbytes, peak / frame.pixels.nbytes


def test_load_frame_keeps_no_bytes_past_the_payload(tmp_path):
    # A PGM Frame keeps the file's bytes as its buffer only when they hold
    # nothing but the header and payload; otherwise it copies the payload.
    px = texture(6, 16, 20)
    path = tmp_path / "two.pgm"
    image = b"P5\n20 16\n255\n" + px.tobytes()
    path.write_bytes(image + image)
    frame = load_frame(path)
    assert np.array_equal(frame.pixels, px)
    assert frame.pixels.flags.owndata and not frame.pixels.flags.writeable
    path.write_bytes(image)
    assert not load_frame(path).pixels.flags.owndata


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_load_frame_reads_a_fifo_whole(tmp_path):
    # A pipe reports no length and hands over its bytes as they are written:
    # a reader sized from fstat, or one that stops at its first short read,
    # gets a truncated payload here.
    regular = tmp_path / "frame.pgm"
    save_frame(frame_of(texture(8, 48, 64, lo=0, hi=256)), regular)
    data = regular.read_bytes()
    fifo = tmp_path / "frame.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb", buffering=0) as fh:
            fh.write(data[: len(data) // 2])
            time.sleep(0.05)
            fh.write(data[len(data) // 2 :])

    writer = threading.Thread(target=feed, daemon=True)  # daemon: a failed read leaves it blocked
    writer.start()
    try:
        frame = load_frame(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(frame.pixels, load_frame(regular).pixels)


def test_header_comments_are_tolerated(tmp_path):
    px = texture(4, 16, 16)
    path = tmp_path / "c.pgm"
    for header in (
        b"P5\n# width and height\n16 # inline\n16\n# maxval next\n255\n",
        b"P5 16#c\n16\n255\n",  # a comment also ends the field before it
        b"P5#c\n16 16\n255\n",  # and separates the magic from the width
    ):
        path.write_bytes(header + px.tobytes())
        assert np.array_equal(load_frame(path).pixels, px)


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.pbm"
    path.write_bytes(b"P4\n16 16\n" + b"\x00" * 32)
    with pytest.raises(PnmError, match="P5/P6"):
        load_frame(path)


def test_rejects_a_magic_run_into_the_width(tmp_path):
    # Read as fields, "P516 16" would be a 16x16 frame.
    path = tmp_path / "000000.pgm"
    path.write_bytes(b"P516 16\n255\n" + b"\x00" * 256)
    with pytest.raises(PnmError, match="^malformed header: expected whitespace or '#' after the magic$"):
        load_frame(path)
    write_frames(tmp_path, [texture(4, 16, 16)], start=1)
    with pytest.raises(PnmError, match="000000.pgm: malformed header: expected whitespace or '#' after the magic"):
        list(load_sequence(tmp_path))


def test_rejects_nondecimal_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\nsixteen 16\n255\n" + b"\x00" * 256)
    with pytest.raises(PnmError, match="header"):
        load_frame(path)


def test_rejects_maxval_followed_by_a_comment(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n16 16\n255# c\n" + b"\x00" * 256)
    with pytest.raises(PnmError, match="missing whitespace before payload"):
        load_frame(path)


def test_rejects_header_field_too_long_for_int_and_names_the_file(tmp_path):
    # 4400 digits: past the interpreter's default limit on int() of a string
    path = tmp_path / "000000.pgm"
    path.write_bytes(b"P5 16 16 " + b"0" * 4397 + b"255\n" + b"\x00" * 256)
    with pytest.raises(PnmError, match="header field of 4400 digits is too long"):
        load_frame(path)
    write_frames(tmp_path, [texture(4, 16, 16)], start=1)
    with pytest.raises(PnmError, match="000000.pgm: malformed header"):
        list(load_sequence(tmp_path))


def test_rejects_unsupported_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n16 16\n65535\n" + b"\x00" * 512)
    with pytest.raises(PnmError, match="maxval"):
        load_frame(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.pnm"
    # one byte short, no payload at all, and an RGB payload one byte short
    for magic, size, found in ((b"P5", 256, 255), (b"P5", 256, 0), (b"P6", 768, 767)):
        path.write_bytes(magic + b"\n16 16\n255\n" + b"\x00" * found)
        with pytest.raises(PnmError, match=f"^truncated payload: expected {size} bytes, found {found}$"):
            load_frame(path)


def test_rejects_tiny_images(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    with pytest.raises(FrameTooSmall, match="2x2"):
        load_frame(path)


def test_save_into_missing_directory_fails(tmp_path):
    f = frame_of(texture(5, 16, 16))
    with pytest.raises(OSError):
        save_frame(f, tmp_path / "nope" / "x.pgm")


# --- Sequence loading ---


def test_sequence_loads_in_index_order(tmp_path):
    arrays = [np.full((16, 16), 10 * i, dtype=np.uint8) for i in range(1, 6)]
    write_frames(tmp_path, arrays, start=1)
    frames = list(load_sequence(tmp_path))
    assert len(frames) == 5
    assert [int(f.pixels[0, 0]) for f in frames] == [10, 20, 30, 40, 50]


def test_sequence_tolerates_index_gaps(tmp_path):
    for i in (0, 1, 3):
        save_frame(frame_of(np.full((16, 16), i, dtype=np.uint8)), tmp_path / ("%06d.pgm" % i))
    frames = load_sequence(tmp_path)
    assert [int(f.pixels[0, 0]) for f in frames] == [0, 1, 3]


def test_sequence_needs_two_frames(tmp_path):
    write_frames(tmp_path, [texture(6, 16, 16)])
    with pytest.raises(SequenceTooShort):
        load_sequence(tmp_path)


def test_sequence_min_frames_relaxation(tmp_path):
    write_frames(tmp_path, [texture(6, 16, 16)])
    assert len(list(load_sequence(tmp_path, min_frames=1))) == 1


def test_sequence_dimension_mismatch_names_the_index(tmp_path):
    write_frames(tmp_path, [texture(7, 16, 16), texture(8, 16, 16)])
    save_frame(frame_of(texture(9, 20, 20)), tmp_path / "000002.pgm")
    write_frames(tmp_path, [texture(10, 16, 16)], start=3)
    with pytest.raises(InconsistentSequence) as exc_info:
        list(load_sequence(tmp_path))
    assert exc_info.value.index == 2


def test_sequence_reads_only_the_names_its_pattern_renders(tmp_path):
    write_frames(tmp_path, [np.full((16, 16), v, dtype=np.uint8) for v in (10, 20)])
    for name, value in (("1.pgm", 30), ("0000002.pgm", 40), ("00000a.pgm", 50)):
        save_frame(frame_of(np.full((16, 16), value, dtype=np.uint8)), tmp_path / name)
    assert [int(f.pixels[0, 0]) for f in load_sequence(tmp_path)] == [10, 20]
    # %d has no padding and %3d pads with spaces, as printf renders them
    assert [int(f.pixels[0, 0]) for f in load_sequence(tmp_path, "%d.pgm", min_frames=1)] == [30]
    save_frame(frame_of(np.full((16, 16), 60, dtype=np.uint8)), tmp_path / "  7.pgm")
    assert [int(f.pixels[0, 0]) for f in load_sequence(tmp_path, "%3d.pgm", min_frames=1)] == [60]
    # %% is one % in the name, as printf renders it, and never the field
    for pattern, value in (("a%%_%06d.pgm", 70), ("b%%d_%03d.pgm", 80)):
        write_frames(tmp_path, [np.full((16, 16), value, dtype=np.uint8)] * 2, pattern=pattern)
        assert [int(f.pixels[0, 0]) for f in load_sequence(tmp_path, pattern)] == [value] * 2


def test_sequence_custom_pattern(tmp_path):
    write_frames(tmp_path, [texture(11, 16, 16), texture(12, 16, 16)], pattern="img_%03d.pgm")
    assert len(list(load_sequence(tmp_path, "img_%03d.pgm"))) == 2


def test_sequence_pattern_without_field_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_sequence(tmp_path, "frames.pgm")


# --- median3 prefilter ---


def naive_median3(px: np.ndarray) -> np.ndarray:
    """Per-pixel reference: sort the in-bounds window, take the lower median."""
    h, w = px.shape
    out = np.empty_like(px)
    for y in range(h):
        for x in range(w):
            vals = []
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w:
                        vals.append(int(px[ny, nx]))
            vals.sort()
            out[y, x] = vals[(len(vals) - 1) // 2]
    return out


def test_median3_constant_frame_unchanged():
    f = frame_of(np.full((16, 16), 128, dtype=np.uint8))
    assert prefilter(f, "median3") == f


def test_median3_removes_isolated_salt():
    px = np.zeros((16, 16), dtype=np.uint8)
    px[8, 8] = 255
    out = prefilter(frame_of(px), "median3")
    assert int(out.pixels[8, 8]) == 0
    assert not out.pixels.any()


def test_median3_matches_naive_oracle():
    for seed in range(10):
        px = texture(100 + seed, 16, 16, lo=0, hi=256)
        out = prefilter(frame_of(px), "median3")
        assert np.array_equal(out.pixels, naive_median3(px))


def test_median3_larger_frame_against_oracle():
    px = texture(200, 24, 33, lo=0, hi=256)
    out = prefilter(frame_of(px), "median3")
    assert np.array_equal(out.pixels, naive_median3(px))


def test_median3_never_invents_values():
    px = texture(201, 16, 16, lo=0, hi=256)
    out = prefilter(frame_of(px), "median3").pixels
    h, w = px.shape
    for y in range(h):
        for x in range(w):
            window = px[max(0, y - 1) : y + 2, max(0, x - 1) : x + 2]
            assert out[y, x] in window


def test_median3_commutes_with_monotone_remap():
    # A strictly increasing intensity map applied before or after the
    # filter gives the same frame: the filter picks a fixed order statistic.
    for seed in range(5):
        px = texture(300 + seed, 16, 16, lo=0, hi=128)
        doubled = prefilter(frame_of(px * np.uint8(2)), "median3").pixels
        filtered = prefilter(frame_of(px), "median3").pixels * np.uint8(2)
        assert np.array_equal(doubled, filtered)


def test_prefilter_none_is_identity():
    f = frame_of(texture(13, 16, 16))
    assert prefilter(f, "none") is f
    assert prefilter(f) is f  # the default


def test_prefilter_unknown_kind():
    with pytest.raises(ValueError):
        prefilter(frame_of(texture(14, 16, 16)), "blur")
