"""Hypothesis strategies shared by the parser fuzz tests."""

import re

from hypothesis import strategies as st

# What an edit inserts: the characters the parsers give meaning to, or any other.
_CHARS = st.sampled_from("0123456789-;> \n\t_+#") | st.characters()


@st.composite
def mutated(draw, text: str) -> str:
    """text after one to four random edits.

    An edit repeats or drops a line, swaps one decimal number for another
    integer (up to 2**70, so past int64), or inserts, deletes or replaces
    one character.
    """
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        numbers = list(re.finditer(r"[0-9]+", text))
        edit = draw(st.sampled_from(("repeat", "drop", "number", "insert", "delete", "replace")))
        if edit in ("repeat", "drop") and lines:
            at = draw(st.integers(0, len(lines) - 1))
            lines[at : at + 1] = [lines[at]] * (2 if edit == "repeat" else 0)
            text = "".join(lines)
        elif edit == "number" and numbers:
            m = draw(st.sampled_from(numbers))
            text = text[: m.start()] + str(draw(st.integers(0, 2**70))) + text[m.end() :]
        elif edit in ("insert", "delete", "replace"):
            at = draw(st.integers(0, len(text)))
            cut = at + (edit != "insert")
            text = text[:at] + ("" if edit == "delete" else draw(_CHARS)) + text[cut:]
    return text
