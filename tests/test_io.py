import pytest

from matchdist.complexes import validate_bifiltration
from matchdist.errors import MissingFace
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.io import (
    format_diagram,
    load_bifiltration,
    parse_bifiltration,
    parse_lowerstar,
    write_bifiltration,
)
from matchdist.persistence import Diagram


def test_roundtrip(tmp_path):
    F = generate_random(GenSpec(6, 5, 1, seed=9))
    p = tmp_path / "f.txt"
    write_bifiltration(p, F)
    G = load_bifiltration(p)
    assert G.simplices == F.simplices
    assert G.critical == F.critical


def test_roundtrip_multicritical(tmp_path):
    F = generate_random_kcritical(GenSpec(5, 4, 1, seed=2), 3)
    p = tmp_path / "f.txt"
    write_bifiltration(p, F)
    G = load_bifiltration(p)
    assert G.critical == F.critical


def test_roundtrip_non_integer_coordinates(tmp_path):
    # integers are written without a fraction, other values by repr
    F = validate_bifiltration([[0], [1], [0, 1]],
                              [[(0.1, 2.5)], [(1e-17, 2.5)], [(0.1, 3.0), (2.5, 2.5)]])
    p = tmp_path / "f.txt"
    write_bifiltration(p, F)
    assert p.read_text().splitlines()[2:] == ["0 ; 0.1 2.5", "1 ; 1e-17 2.5", "0 1 ; 0.1 3 2.5 2.5"]
    assert load_bifiltration(p).critical == F.critical


def test_comments_and_whitespace():
    text = """
# a comment
bifiltration
3   # count
0 ; 0 0
1 ; 1 0   # vertex one
0 1 ; 1 0.5
"""
    F = parse_bifiltration(text)
    assert F.n == 3
    assert F.critical[F.index[(0, 1)]][0] == (1.0, 0.5)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bifiltration("bifiltration\n1\n0 0 0\n")  # no separator
    with pytest.raises(ValueError):
        parse_bifiltration("bifiltration\n2\n0 ; 0 0\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_bifiltration("something\n")
    with pytest.raises(ValueError):
        parse_bifiltration("bifiltration\n1\n0 ; 1\n")  # odd coordinate count
    with pytest.raises(ValueError, match="expected 'lowerstar' header"):
        parse_lowerstar("bifiltration\n1 1\n0 0\n0\n")


def test_lowerstar_parse():
    text = """lowerstar
2 3
1 4
3 2
0
1
0 1
"""
    F = parse_lowerstar(text)
    assert F.critical[F.index[(0, 1)]][0] == (3.0, 4.0)
    assert F.critical[F.index[(0,)]][0] == (1.0, 4.0)


def test_lowerstar_missing_face_detected():
    text = """lowerstar
2 1
0 0
1 1
0 1
"""
    with pytest.raises(MissingFace):
        parse_lowerstar(text)


def test_load_dispatches_on_header(tmp_path):
    p = tmp_path / "ls.txt"
    p.write_text("lowerstar\n1 1\n2 3\n0\n", encoding="utf-8")
    F = load_bifiltration(p)
    assert F.critical[0][0] == (2.0, 3.0)


def test_diagram_dump_format():
    # unsorted input dumps in canonical order, with plain float reprs
    D = Diagram([(0.5, 1.25), (0.1, 2.0), (0.1, 0.3)], [2.0, 0.0], 1)
    assert format_diagram(D, "note").splitlines() == [
        "# dim=1", "# note", "0.1 0.3", "0.1 2.0", "0.5 1.25", "0.0 inf", "2.0 inf",
    ]
