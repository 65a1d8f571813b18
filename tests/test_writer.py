"""The CSV writer: every number byte for byte as `'%.11e' %` writes it, and
every subcommand's output byte-equal to the row-template writer it replaced."""

import dataclasses
import sys

import numpy as np
import pytest

from ptspectra import cli
from ptspectra.numeric import FAMILIES


def _reference_text(header, columns):
    """The row-template writer: one `%` per row over the cells."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%s" if c and isinstance(c[0], str) else "%.11e" for c in columns)
    return "\n".join([",".join(header)] + [row % cells for cells in zip(*columns)]) + "\n"


def _reference_emit(header, columns, out_path):
    text = _reference_text(header, columns)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _corpus(rng):
    """Random bit patterns, 13-digit integers times 10^k, exact ties, the
    carry cases, both neighbours of every 10^k, and the special values."""
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
    ints = rng.integers(10 ** 12, 10 ** 13, 40_000).astype(float) \
        * 10.0 ** rng.integers(-300, 290, 40_000)
    ties = (rng.integers(10 ** 11, 10 ** 12, 20_000) * 10 + 5).astype(float) \
        * 10.0 ** rng.integers(-20, 20, 20_000)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    wide = rng.uniform(-1e3, 1e3, 40_000) * 10.0 ** rng.integers(-30, 30, 40_000)
    special = [1000000000005.0, 1000000000015.0, 9.999999999995, 99.99999999999,
               0.5, 2.5, 5e-324, 1e-310, 2.2250738585072014e-308,
               1e-280, np.nextafter(1e-280, 0), 1e280, np.nextafter(1e280, np.inf),
               1.7976931348623157e308, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
    return np.concatenate([bits, ints, ties, edges, -edges, wide, special])


def _assert_same_text(path, header, columns):
    got = path.read_text().split("\n")
    want = _reference_text(header, columns).split("\n")
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


def test_every_cell_is_percent_11e(tmp_path):
    values = _corpus(np.random.default_rng(20261018))
    assert len(values) >= 200_000
    table = values[: len(values) // 4 * 4].reshape(4, -1)
    columns = [table[0], table[1].tolist(), table[2], ["s"] * table.shape[1], table[3]]
    path = tmp_path / "t.csv"
    cli._emit(["a", "b", "c", "d", "e"], columns, str(path))
    _assert_same_text(path, ["a", "b", "c", "d", "e"], columns)
    tail = values[table.size:]
    cli._emit(["v"], [tail], str(path))
    _assert_same_text(path, ["v"], [tail])


def _bench_argv(command, name, points):
    """The tabulate benchmark's argv shape: every parameter flag, --n, and
    the first level's N, sigma and tau."""
    fam = FAMILIES[name]
    argv = [command, "--family", name]
    for field in dataclasses.fields(fam.canonical):
        argv += [f"--{field.name}", repr(float(getattr(fam.canonical, field.name)))]
    qn = fam.spectrum(fam.canonical)[0].qn
    return argv + ["--n", str(points), "--N", str(qn.N), "--sigma", str(qn.sigma),
                   "--tau", str(qn.tau)]


ARGVS = (
    [["spectrum", "--family", name] for name in FAMILIES]
    + [["spectrum", "--family", "rpt", "--alpha", "0.5", "--beta", "0.5"]]
    + [["verify", "--family", name] for name in FAMILIES]
    + [["verify", "--family", "rpt", "--n", "3"]]
    + [["sample", "--family", name] for name in FAMILIES]
    + [["sample", "--family", name, "--N", "0"] for name in FAMILIES]
    + [["transform", "--family", "hulthen"],
       ["transform", "--family", "hulthen", "--identity-selftest"]]
    + [_bench_argv("sample", name, 4001) for name in FAMILIES]
    + [_bench_argv("transform", "hulthen", 4001)]
)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_bytes_match_the_row_template_writer(monkeypatch, capsys, tmp_path, argv):
    runs = {}
    for name, emit in (("reference", _reference_emit), ("writer", cli._emit)):
        monkeypatch.setattr(cli, "_emit", emit)
        path = tmp_path / f"{name}.csv"
        codes = (cli.main(argv), cli.main(argv + ["--out", str(path)]))
        runs[name] = codes, capsys.readouterr().out.encode(), path.read_bytes()
    assert runs["writer"] == runs["reference"]
    codes, out, _ = runs["writer"]
    assert set(codes) <= {0, 1} and out.count(b"\n") >= 1
