import pytest

from supercat.errors import DomainError
from supercat.paths import parse_path
from supercat.render import render_svg


def test_standalone_document():
    svg = render_svg(parse_path("UUDD", "dyck"))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_one_element_per_step():
    svg = render_svg(parse_path("UDSWUD", "motzkin"))
    assert svg.count('class="step ') == 6
    assert svg.count("step-wavy") == 1
    assert svg.count("step-straight") == 1


def test_grid_covers_negative_levels():
    # parsed-but-invalid paths still render; the grid tracks the min level
    svg = render_svg(parse_path("DU", "dyck"))
    assert '<g class="grid"' in svg


def test_empty_path_renders():
    svg = render_svg(parse_path("", "motzkin"))
    assert "</svg>" in svg


def test_markers():
    svg = render_svg(parse_path("UUDUDD", "dyck"), show_markers=True)
    assert 'data-x="3"' in svg
    assert 'data-x="4"' in svg
    assert ">anchor<" in svg
    assert ">rmax<" in svg


def test_markers_require_valid_dyck():
    with pytest.raises(DomainError):
        render_svg(parse_path("SS", "motzkin"), show_markers=True)
    with pytest.raises(DomainError):
        render_svg(parse_path("", "motzkin"), show_markers=True)
