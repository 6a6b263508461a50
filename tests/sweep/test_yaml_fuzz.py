"""The YAML-subset spec reader under mutated text.

:func:`~repro.sweep.spec.load_spec_file` must turn any file into a
:class:`~repro.sweep.SweepSpec` or a one-line ``ValueError``.  The
mutations start from a valid spec that uses every construct the subset
has (comments, nested mappings, block and inline lists, quoted strings)
and drop, repeat or re-indent lines, insert runs of YAML punctuation,
wrap a value in brackets, or cut the text short.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sweep import SweepSpec
from repro.sweep.spec import load_spec_file

VALID = """\
# the CI smoke sweep
name: "ci-smoke"
base:
  n_days: 4
  n_nodes: 144
  n_users: 60
axes:
  fault_profile: ["none", mild, pathological]
  page_kb:
    - 4
    - 16
baseline:
  fault_profile: 'none'   # the healthy cell
  page_kb: 4
repeat:
  seeds: [1, 2, 3]
"""

PUNCTUATION = st.sampled_from(list("[]{}:-#'\",|>&*!%@` "))
#: Run lengths; 3,000 brackets nest deeper than a parser can recurse.
RUNS = st.sampled_from([1, 2, 3, 40, 3000])


@st.composite
def mutated_text(draw) -> str:
    lines = VALID.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["drop", "repeat", "indent", "punctuate", "nest"]))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines[i:i] = [line] * draw(st.integers(1, 3))
        elif kind == "indent":
            body = line.lstrip(" ")
            indent = max(0, len(line) - len(body) + draw(st.integers(-4, 4)))
            lines[i] = " " * indent + body
        elif kind == "punctuate":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(PUNCTUATION) * draw(RUNS) + line[at:]
        else:
            key, colon, value = line.partition(":")
            n = draw(RUNS)
            lines[i] = f"{key}{colon} {'[' * n}{value.strip()}{']' * n}"
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("yaml-fuzz") / "spec.yaml"


def test_valid_text_loads(spec_path):
    spec_path.write_text(VALID)
    assert load_spec_file(str(spec_path)).n_cells == 6


@settings(max_examples=300, deadline=None)
@given(text=mutated_text())
@example(text=VALID.replace("n_days: 4", "n_days: " + "[" * 3000 + "4" + "]" * 3000))
@example(text="[" * 3000 + VALID)
def test_mutated_text_loads_or_is_refused_in_one_line(spec_path, text):
    spec_path.write_text(text)
    try:
        spec = load_spec_file(str(spec_path))
    except ValueError as err:
        assert "\n" not in str(err), str(err)
    else:
        assert isinstance(spec, SweepSpec)
