from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from affinetask import (ComplexError, Simplex, VerificationReport, build_r_a,
                        chr2_complex, chr_complex, make_k_of, render_complex_svg,
                        render_off)
from affinetask.render import _fmt
from oracles import project_vertex


def test_fixed_point_formatting():
    assert _fmt(Fraction(1, 3)) == "0.333"
    assert _fmt(Fraction(500)) == "500"
    assert _fmt(Fraction(-1, 8)) == "-0.125"
    assert _fmt(Fraction(1, 2)) == "0.5"
    # ties round half to even, as round() of a Fraction does
    assert _fmt(Fraction(1, 2000)) == "0"
    assert _fmt(Fraction(3, 2000)) == "0.002"
    assert _fmt(Fraction(-1, 2000)) == "0"
    assert _fmt(Fraction(-3, 2000)) == "-0.002"


def test_projection_places_corners():
    K = chr_complex(3)
    corners = [v for v in K.vertices if len(v.payload) == 1]
    points = {v.color: project_vertex(v, 3) for v in corners}
    assert points[1] == (0, 0)
    assert points[2] == (500, 866)
    assert points[3] == (1000, 0)


def test_svg_is_deterministic():
    K = chr2_complex(2)
    assert render_complex_svg(K) == render_complex_svg(K)


def test_svg_highlight_layers_count_their_simplices():
    K = chr2_complex(3)
    task = build_r_a(make_k_of(3, 1))
    some_vertex = Simplex((next(iter(K.vertices)),))
    svg = render_complex_svg(K, highlights=[
        (task.complex.facets, "#1f77b4"),
        ([some_vertex], "#d62728"),
    ])
    assert svg.count('class="hl0"') == 73
    assert svg.count('class="hl1"') == 1
    assert svg.count('class="vertex"') == len(K.vertices)


def test_svg_labels_every_vertex():
    K = chr_complex(2)
    svg = render_complex_svg(K, labels=True)
    assert svg.count('class="label"') == len(K.vertices)
    assert "1(1)" in svg


def test_svg_rejects_large_dimension():
    with pytest.raises(ComplexError):
        render_complex_svg(chr_complex(4))


def test_off_export_golden():
    off = render_off(chr_complex(4))
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "32 176 0"
    assert len(lines) == 2 + 32 + 176
    with pytest.raises(ComplexError):
        render_off(chr_complex(3))


# sha256 of the OFF meshes of Chr s and Chr Chr s at n=4
OFF_SHA256 = {
    1: "a7770d235c5e3696c26cb60ce864e2a3b9a7fbcd9ab5e103bb9333f4ea961b6d",
    2: "155b8b7b8b7cd7006cdf3e4c752cba2b520d713224ff1a6a30ba0607bd50d42f",
}


@pytest.mark.parametrize("rounds", [1, 2])
def test_off_bytes_are_frozen(rounds):
    off = render_off((chr_complex if rounds == 1 else chr2_complex)(4))
    assert hashlib.sha256(off.encode()).hexdigest() == OFF_SHA256[rounds]


def test_verification_report_shape():
    report = VerificationReport(kind="demo")
    assert report.ok
    report.checked = 3
    report.add(reason="x")
    assert not report.ok
    assert report.to_dict() == {
        "kind": "demo", "checked": 3, "ok": False,
        "violations": [{"reason": "x"}], "info": {},
    }
